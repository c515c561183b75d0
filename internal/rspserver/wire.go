package rspserver

import (
	"fmt"
	"math/big"
	"time"

	"opinions/internal/attest"
	"opinions/internal/blindsig"
	"opinions/internal/interaction"
	"opinions/internal/search"
	"opinions/internal/world"
)

// WireRecord is the JSON form of an interaction record.
type WireRecord struct {
	Kind      string    `json:"kind"` // "visit" | "call" | "payment"
	Start     time.Time `json:"start"`
	DurationS float64   `json:"duration_s"`
	DistanceM float64   `json:"distance_m,omitempty"`
	Amount    float64   `json:"amount,omitempty"`
}

// ToRecord converts the wire form, validating the kind.
func (w WireRecord) ToRecord(entityKey string) (interaction.Record, error) {
	var kind interaction.Kind
	switch w.Kind {
	case "visit":
		kind = interaction.VisitKind
	case "call":
		kind = interaction.CallKind
	case "payment":
		kind = interaction.PaymentKind
	default:
		return interaction.Record{}, fmt.Errorf("rspserver: unknown record kind %q", w.Kind)
	}
	if w.DurationS < 0 || w.DistanceM < 0 {
		return interaction.Record{}, fmt.Errorf("rspserver: negative duration or distance")
	}
	return interaction.Record{
		Entity:       entityKey,
		Kind:         kind,
		Start:        w.Start,
		Duration:     time.Duration(w.DurationS * float64(time.Second)),
		DistanceFrom: w.DistanceM,
		Amount:       w.Amount,
	}, nil
}

// FromRecord converts a record to wire form.
func FromRecord(r interaction.Record) WireRecord {
	return WireRecord{
		Kind:      r.Kind.String(),
		Start:     r.Start,
		DurationS: r.Duration.Seconds(),
		DistanceM: r.DistanceFrom,
		Amount:    r.Amount,
	}
}

// WireToken is the JSON form of a blind-signature token.
type WireToken struct {
	Msg string `json:"msg"` // hex serial
	Sig string `json:"sig"` // decimal big.Int
}

// ToToken parses the wire form.
func (w WireToken) ToToken() (blindsig.Token, error) {
	msg, err := hexDecode(w.Msg)
	if err != nil {
		return blindsig.Token{}, fmt.Errorf("rspserver: token msg: %w", err)
	}
	sig, ok := new(big.Int).SetString(w.Sig, 10)
	if !ok {
		return blindsig.Token{}, fmt.Errorf("rspserver: token sig not a number")
	}
	return blindsig.Token{Msg: msg, Sig: sig}, nil
}

// FromToken converts a token to wire form.
func FromToken(t blindsig.Token) WireToken {
	return WireToken{Msg: hexEncode(t.Msg), Sig: t.Sig.String()}
}

func hexEncode(b []byte) string { return fmt.Sprintf("%x", b) }

func hexDecode(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("odd-length hex")
	}
	out := make([]byte, len(s)/2)
	if _, err := fmt.Sscanf(s, "%x", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// UploadRequest is the anonymous upload body (POST /api/upload). It
// carries either a record, an inferred rating, or both.
type UploadRequest struct {
	AnonID string      `json:"anon_id"`
	Entity string      `json:"entity"`
	Record *WireRecord `json:"record,omitempty"`
	Rating *float64    `json:"rating,omitempty"`
	Token  WireToken   `json:"token"`
	// Key is the client-stamped idempotency key: stable across retries,
	// spooling, and redelivery under a fresh token, so the server can
	// recognize and absorb duplicate deliveries (exactly-once uploads).
	// Required: an upload without one is refused with 400 before its
	// token is spent.
	Key string `json:"key,omitempty"`
}

// TokenKeyResponse exposes the issuer's public key (GET /api/token/key).
type TokenKeyResponse struct {
	N string `json:"n"` // decimal modulus
	E int    `json:"e"`
}

// TokenSignRequest asks the issuer to blind-sign (POST /api/token).
type TokenSignRequest struct {
	Device  string `json:"device"`
	Blinded string `json:"blinded"` // decimal big.Int
}

// TokenSignResponse returns the blind signature.
type TokenSignResponse struct {
	BlindSig string `json:"blind_sig"` // decimal big.Int
}

// PostReviewRequest posts an explicit review (POST /api/reviews).
type PostReviewRequest struct {
	Entity string  `json:"entity"`
	Author string  `json:"author"`
	Rating float64 `json:"rating"`
	Text   string  `json:"text"`
}

// TrainRequest submits one volunteered (features, rating) training pair
// (POST /api/train). Only users who already post public reviews submit
// these; the pair contains no identity.
type TrainRequest struct {
	Features []float64 `json:"features"`
	Rating   float64   `json:"rating"`
	// Category refines the per-category model; optional.
	Category string `json:"category,omitempty"`
}

// WireEntity is the public directory form of an entity.
type WireEntity struct {
	Key        string  `json:"key"`
	Service    string  `json:"service"`
	Category   string  `json:"category"`
	Zip        string  `json:"zip,omitempty"`
	Name       string  `json:"name"`
	Lat        float64 `json:"lat,omitempty"`
	Lon        float64 `json:"lon,omitempty"`
	Phone      string  `json:"phone,omitempty"`
	PriceLevel int     `json:"price_level,omitempty"`
	// Interactions/Feedback are exposed for Play/YouTube-style services
	// (Figure 1c); zero elsewhere.
	Interactions int64 `json:"interactions,omitempty"`
	Feedback     int64 `json:"feedback,omitempty"`
}

// FromEntity converts an entity to its public wire form. Latent quality
// is never exposed.
func FromEntity(e *world.Entity) WireEntity {
	return WireEntity{
		Key:          e.Key(),
		Service:      string(e.Service),
		Category:     e.Category,
		Zip:          e.Zip,
		Name:         e.Name,
		Lat:          e.Loc.Lat,
		Lon:          e.Loc.Lon,
		Phone:        e.Phone,
		PriceLevel:   e.PriceLevel,
		Interactions: e.Interactions,
		Feedback:     e.Feedback,
	}
}

// WireResult is one search result (GET /api/search).
type WireResult struct {
	Entity            WireEntity `json:"entity"`
	ReviewCount       int        `json:"review_count"`
	ReviewMean        float64    `json:"review_mean"`
	InferredCount     int        `json:"inferred_count"`
	InferredMean      float64    `json:"inferred_mean"`
	InferredHistogram [11]int    `json:"inferred_histogram"`
	Score             float64    `json:"score"`
	// Comparative visualization payload (Figure 3), when available.
	VisitsPerUser          map[int]int     `json:"visits_per_user,omitempty"`
	MeanDistanceKmByVisits map[int]float64 `json:"mean_distance_km_by_visits,omitempty"`
	RepeatFraction         float64         `json:"repeat_fraction,omitempty"`
	EffectiveInteractions  float64         `json:"effective_interactions,omitempty"`
	RawInteractions        int             `json:"raw_interactions,omitempty"`
}

// FromResult converts a search result to wire form.
func FromResult(r search.Result) WireResult {
	w := WireResult{
		Entity:            FromEntity(r.Entity),
		ReviewCount:       r.ReviewCount,
		ReviewMean:        r.ReviewMean,
		InferredCount:     r.InferredCount,
		InferredMean:      r.InferredMean,
		InferredHistogram: r.InferredHistogram,
		Score:             r.Score,
	}
	if r.Aggregate != nil {
		w.VisitsPerUser = r.Aggregate.VisitsPerUser
		w.MeanDistanceKmByVisits = r.Aggregate.MeanDistanceKmByVisits
		w.RepeatFraction = r.Aggregate.RepeatFraction
		w.EffectiveInteractions = r.Aggregate.EffectiveInteractions
		w.RawInteractions = r.Aggregate.RawInteractions
	}
	return w
}

// MetaResponse describes the service universe (GET /api/meta); the
// measurement crawler derives its query list from it.
type MetaResponse struct {
	Services []MetaService `json:"services"`
}

// MetaService is one service's query surface.
type MetaService struct {
	Kind       string   `json:"kind"`
	Name       string   `json:"name"`
	Categories []string `json:"categories"`
	Zips       []string `json:"zips"`
}

// StatsResponse summarizes server state (GET /api/stats).
type StatsResponse struct {
	Entities         int `json:"entities"`
	Reviews          int `json:"reviews"`
	Histories        int `json:"histories"`
	HistoryRecords   int `json:"history_records"`
	InferredOpinions int `json:"inferred_opinions"`
	TrainingPairs    int `json:"training_pairs"`
}

// SweepResponse reports a fraud sweep (POST /api/fraud/sweep).
type SweepResponse struct {
	Scanned   int `json:"scanned"`
	Discarded int `json:"discarded"`
}

// AttestChallengeResponse returns a fresh attestation nonce
// (POST /api/attest/challenge).
type AttestChallengeResponse struct {
	Nonce string `json:"nonce"` // hex
}

// AttestVerifyRequest submits a device's quote (POST /api/attest/verify).
type AttestVerifyRequest struct {
	Device      string `json:"device"`
	Nonce       string `json:"nonce"`       // hex
	Measurement string `json:"measurement"` // hex, 32 bytes
	MAC         string `json:"mac"`         // hex
}

// ToQuote parses the wire form.
func (r AttestVerifyRequest) ToQuote() (attest.Quote, error) {
	nonce, err := hexDecode(r.Nonce)
	if err != nil {
		return attest.Quote{}, fmt.Errorf("rspserver: attest nonce: %w", err)
	}
	mb, err := hexDecode(r.Measurement)
	if err != nil || len(mb) != 32 {
		return attest.Quote{}, fmt.Errorf("rspserver: attest measurement malformed")
	}
	mac, err := hexDecode(r.MAC)
	if err != nil {
		return attest.Quote{}, fmt.Errorf("rspserver: attest mac: %w", err)
	}
	var m attest.Measurement
	copy(m[:], mb)
	return attest.Quote{DeviceID: r.Device, Nonce: nonce, Measurement: m, MAC: mac}, nil
}

// FromQuote converts a quote to wire form.
func FromQuote(q attest.Quote) AttestVerifyRequest {
	return AttestVerifyRequest{
		Device:      q.DeviceID,
		Nonce:       hexEncode(q.Nonce),
		Measurement: q.Measurement.String(),
		MAC:         hexEncode(q.MAC),
	}
}

// ErrorResponse is the JSON error body.
type ErrorResponse struct {
	Error string `json:"error"`
}
