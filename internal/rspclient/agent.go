// Package rspclient is the device agent of Figure 2: the RSP's client
// running on the user's phone. It senses the day (via a sensing.Policy),
// maps raw observations to entities locally, maintains the recent
// snapshot store, infers opinions with the downloaded model, and uploads
// records and inferred opinions over anonymous, delayed, token-gated
// channels.
//
// Invariants the agent maintains, mirroring §4.2 and §5:
//
//   - Ru, the device secret, never appears in any Transport call.
//   - Every upload for entity e uses AnonID = hash(Ru, e); uploads for
//     different entities are unlinkable.
//   - Uploads are smeared over a mixing window, never sent in real time.
//   - Each upload spends a fresh blind-signed token.
//   - The user can list every inference (Inferences) and erase any
//     entity (Correct) — the §5 transparency surface.
package rspclient

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"sort"
	"time"

	"opinions/internal/anonymity"
	"opinions/internal/blindsig"
	"opinions/internal/history"
	"opinions/internal/inference"
	"opinions/internal/interaction"
	"opinions/internal/mapping"
	"opinions/internal/rspserver"
	"opinions/internal/sensing"
	"opinions/internal/stats"
	"opinions/internal/trace"
)

// Config configures an agent.
type Config struct {
	// DeviceID identifies the device to the token issuer (the one
	// non-anonymous interaction).
	DeviceID string
	// Author is the user's public pseudonym for explicit reviews.
	Author string
	// Seed drives all client-side randomness deterministically.
	Seed int64
	// Policy is the location sampling policy (default DutyCycled).
	Policy sensing.Policy
	// Retention bounds the on-device snapshot (default 30 days).
	Retention time.Duration
	// MixMin/MixMax bound the upload smearing delay (defaults 0 / 6h).
	MixMin, MixMax time.Duration
	// MinInferenceEvidence is the evidence floor before inferring
	// (default 3 interactions).
	MinInferenceEvidence int
	// SpoolPath, when set, backs the failed-upload spool with a file so
	// undelivered uploads survive an app restart. Empty keeps the spool
	// in memory only.
	SpoolPath string
}

// Agent is one device. Construct with NewAgent, then Bootstrap.
type Agent struct {
	cfg       Config
	transport Transport
	ru        []byte
	rng       *stats.RNG

	resolver *mapping.Resolver
	detector *interaction.Detector
	store    *history.ClientStore
	mix      *anonymity.Mix
	spool    *Spool
	tokenKey *rsa.PublicKey
	models   *inference.ModelSet

	optedOut map[string]bool
	// inferred tracks the last uploaded rating per entity so opinions
	// are re-uploaded only when they change materially.
	inferred map[string]float64
}

// NewAgent creates an agent bound to a transport. Call Bootstrap before
// processing days.
func NewAgent(cfg Config, transport Transport) *Agent {
	if cfg.Policy == nil {
		cfg.Policy = sensing.DutyCycled{}
	}
	rng := stats.NewRNG(cfg.Seed)
	ru := make([]byte, 32)
	// Ru is drawn from the deterministic stream so experiments
	// reproduce; a production build would use crypto/rand.
	for i := range ru {
		ru[i] = byte(rng.Intn(256))
	}
	spool, err := NewSpool(cfg.SpoolPath)
	if err != nil {
		// A corrupt spool file must not brick the agent: start empty
		// but keep the path so new uploads overwrite the bad file.
		// Callers that need the error can construct via NewSpool first.
		spool = &Spool{path: cfg.SpoolPath}
	}
	return &Agent{
		cfg:       cfg,
		transport: transport,
		ru:        ru,
		rng:       rng,
		store:     history.NewClientStore(cfg.Retention),
		mix:       anonymity.NewMix(cfg.MixMin, cfg.MixMax, rng.Split("mix")),
		spool:     spool,
		optedOut:  make(map[string]bool),
		inferred:  make(map[string]float64),
	}
}

// Bootstrap downloads the directory, token key, and (if available) the
// inference model.
func (a *Agent) Bootstrap() error {
	dir, err := a.transport.FetchDirectory()
	if err != nil {
		return fmt.Errorf("rspclient: fetching directory: %w", err)
	}
	a.resolver = mapping.NewResolver(dir)
	a.detector = interaction.NewDetector(a.resolver, interaction.Config{})
	a.tokenKey, err = a.transport.FetchTokenKey()
	if err != nil {
		return fmt.Errorf("rspclient: fetching token key: %w", err)
	}
	if m, err := a.transport.FetchModel(); err == nil {
		a.models = m
	} else if err != ErrNoModel {
		return fmt.Errorf("rspclient: fetching model: %w", err)
	}
	return nil
}

// RefreshModel re-downloads the inference model.
func (a *Agent) RefreshModel() error {
	m, err := a.transport.FetchModel()
	if err != nil {
		return err
	}
	a.models = m
	return nil
}

// HasModel reports whether the agent can currently infer opinions.
func (a *Agent) HasModel() bool { return a.models != nil }

// DayResult summarizes one processed day.
type DayResult struct {
	Energy        sensing.Energy
	Detected      int // interaction records detected
	ReviewsPosted int
	TrainingPairs int
}

// ProcessDay observes one day of the user's life: sample the timeline
// under the sensing policy, detect interactions, record them locally,
// queue anonymous record uploads, and handle the user's explicit
// reviews (posting them publicly and volunteering training pairs).
func (a *Agent) ProcessDay(day trace.DayLog) (DayResult, error) {
	if a.resolver == nil {
		return DayResult{}, fmt.Errorf("rspclient: agent not bootstrapped")
	}
	var res DayResult

	samples, energy := a.cfg.Policy.SampleDay(a.rng.Split("sense/"+day.Date.Format("2006-01-02")), day.Segments)
	res.Energy = energy

	var recs []interaction.Record
	recs = append(recs, a.detector.DetectVisits(samples)...)
	calls := make([]interaction.CallObservation, len(day.Calls))
	for i, c := range day.Calls {
		calls[i] = interaction.CallObservation{Phone: c.Phone, Time: c.Time, Duration: c.Duration}
	}
	recs = append(recs, a.detector.FromCalls(calls)...)
	pays := make([]interaction.PaymentObservation, len(day.Payments))
	for i, p := range day.Payments {
		pays[i] = interaction.PaymentObservation{Merchant: p.Entity, Time: p.Time, Amount: p.Amount}
	}
	recs = append(recs, a.detector.FromPayments(pays)...)

	dayEnd := day.Date.Add(24 * time.Hour)
	for _, r := range recs {
		if a.optedOut[r.Entity] {
			continue
		}
		a.store.Add(r)
		rec := r
		a.mix.Submit(anonymity.Upload{
			AnonID: history.AnonID(a.ru, r.Entity),
			Entity: r.Entity,
			Record: &rec,
			// The idempotency key is stamped once here, at creation; it
			// rides through the mix, the wire, and the spool unchanged,
			// so every delivery attempt of this upload is recognizably
			// the same upload to the server.
			Key: anonymity.NewUploadKey(),
		}, r.Start)
	}
	res.Detected = len(recs)

	// Explicit reviews: post publicly, and volunteer a training pair
	// when the device has observational evidence to pair the rating
	// with.
	for _, rv := range day.Reviews {
		if err := a.transport.PostReview(rv.Entity, a.cfg.Author, rv.Rating, ""); err != nil {
			return res, fmt.Errorf("rspclient: posting review: %w", err)
		}
		res.ReviewsPosted++
		if ev := a.evidenceFor(rv.Entity); ev.InteractionCount() > 0 {
			category := ""
			if ent := a.resolver.Entity(rv.Entity); ent != nil {
				category = ent.Category
			}
			if err := a.transport.SubmitTraining(inference.ExtractFeatures(ev), rv.Rating, category); err != nil {
				return res, fmt.Errorf("rspclient: submitting training pair: %w", err)
			}
			res.TrainingPairs++
		}
	}

	a.store.Purge(dayEnd)
	return res, nil
}

// evidenceFor assembles the local evidence for one entity, including the
// cross-entity exploration feature and the choice-set feature.
func (a *Agent) evidenceFor(entityKey string) inference.EntityEvidence {
	ev := inference.EntityEvidence{Records: a.store.ForEntity(entityKey)}
	ent := a.resolver.Entity(entityKey)
	if ent == nil {
		return ev
	}
	for _, other := range a.store.Entities() {
		if other == entityKey {
			continue
		}
		if oe := a.resolver.Entity(other); oe != nil && oe.Category == ent.Category {
			ev.AlternativesTried++
		}
	}
	ev.ChoiceSetSize = a.resolver.SimilarNearby(entityKey, 3000)
	return ev
}

// InferOpinions runs the predictor over every entity in the snapshot and
// queues opinion uploads for inferences that are new or changed by at
// least half a star. Returns the number queued. No-op without a model.
func (a *Agent) InferOpinions(now time.Time) int {
	if a.models == nil {
		return 0
	}
	queued := 0
	for _, key := range a.store.Entities() {
		if a.optedOut[key] {
			continue
		}
		category := ""
		if ent := a.resolver.Entity(key); ent != nil {
			category = ent.Category
		}
		pred := inference.NewPredictor(a.models.For(category))
		if a.cfg.MinInferenceEvidence > 0 {
			pred.MinInteractions = a.cfg.MinInferenceEvidence
		}
		rating, ok := pred.Infer(a.evidenceFor(key))
		if !ok {
			continue
		}
		if prev, seen := a.inferred[key]; seen && abs(prev-rating) < 0.5 {
			continue
		}
		a.inferred[key] = rating
		r := rating
		a.mix.Submit(anonymity.Upload{
			AnonID: history.AnonID(a.ru, key),
			Entity: key,
			Rating: &r,
			Key:    anonymity.NewUploadKey(),
		}, now)
		queued++
	}
	return queued
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// FlushUploads delivers every upload whose mixing delay has elapsed —
// spooled leftovers from earlier failed flushes first — acquiring a
// fresh blind token for each. Returns the number delivered.
//
// Failure never loses an upload. When token issuance is down or
// rate-limited, the current upload and everything behind it go to the
// spool and re-drain next flush. When an individual delivery fails
// after its retries, that upload is spooled (tokenless; a fresh token
// is fetched at redelivery) and the flush continues with the rest. The
// first error is returned so callers can log it, but the agent
// degrades by queueing, not by crashing or dropping.
func (a *Agent) FlushUploads(now time.Time) (int, error) {
	due := append(a.spool.TakeAll(), a.mix.Flush(now)...)
	sent := 0
	var firstErr error
	for i, u := range due {
		tok, err := a.fetchToken()
		if err != nil {
			// Token issuance is unavailable for this period; spool
			// everything undelivered and try again next flush.
			a.spool.PutAll(due[i:])
			if firstErr == nil {
				firstErr = fmt.Errorf("rspclient: acquiring token: %w", err)
			}
			return sent, firstErr
		}
		req := rspserver.UploadRequest{
			AnonID: u.AnonID,
			Entity: u.Entity,
			Rating: u.Rating,
			Token:  rspserver.FromToken(tok),
			Key:    u.Key,
		}
		if u.Record != nil {
			w := rspserver.FromRecord(*u.Record)
			req.Record = &w
		}
		if err := a.transport.Upload(req); err != nil {
			a.spool.Put(u)
			if firstErr == nil {
				firstErr = fmt.Errorf("rspclient: uploading: %w", err)
			}
			continue
		}
		sent++
	}
	return sent, firstErr
}

// fetchToken runs the blind-signature protocol once.
func (a *Agent) fetchToken() (blindsig.Token, error) {
	serial := make([]byte, 32)
	if _, err := rand.Read(serial); err != nil {
		return blindsig.Token{}, err
	}
	blinded, unblind, err := blindsig.Blind(a.tokenKey, serial, rand.Reader)
	if err != nil {
		return blindsig.Token{}, err
	}
	sig, err := a.transport.SignToken(a.cfg.DeviceID, blinded)
	if err != nil {
		return blindsig.Token{}, err
	}
	return blindsig.Token{Msg: serial, Sig: unblind(sig)}, nil
}

// InferenceView is one row of the transparency screen (§5): what the app
// currently believes about one entity.
type InferenceView struct {
	Entity       string
	Records      int
	Rating       float64
	HasInference bool
}

// Inferences lists the app's current beliefs, sorted by entity key.
func (a *Agent) Inferences() []InferenceView {
	var out []InferenceView
	for _, key := range a.store.Entities() {
		v := InferenceView{Entity: key, Records: len(a.store.ForEntity(key))}
		if r, ok := a.inferred[key]; ok {
			v.Rating, v.HasInference = r, true
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entity < out[j].Entity })
	return out
}

// Correct erases everything the app holds about an entity and stops
// future inference for it — the user telling the app "that inference is
// wrong / none of your business" (§5).
func (a *Agent) Correct(entityKey string) {
	a.store.Forget(entityKey)
	delete(a.inferred, entityKey)
	a.optedOut[entityKey] = true
}

// Suspend moves every upload still waiting in the mixing queue into the
// durable spool — the app's "about to be killed" hook. Spooled entries
// skip the remainder of their mixing delay on redelivery, a deliberate
// trade: across a restart, durability (and the exactly-once accounting
// that the idempotency keys provide) outranks the last hours of timing
// smear. Returns the number of uploads moved.
func (a *Agent) Suspend() int {
	pending := a.mix.Drain()
	a.spool.PutAll(pending)
	return len(pending)
}

// PendingUploads reports the number of undelivered uploads: still in
// the mixing queue or spooled after a failed delivery.
func (a *Agent) PendingUploads() int { return a.mix.Pending() + a.spool.Len() }

// SpooledUploads reports only the uploads held back by delivery
// failures (past their mixing delay, awaiting redelivery).
func (a *Agent) SpooledUploads() int { return a.spool.Len() }

// SnapshotLen reports the number of records in the on-device snapshot.
func (a *Agent) SnapshotLen() int { return a.store.Len() }

// Resolver exposes the on-device directory (read-only use).
func (a *Agent) Resolver() *mapping.Resolver { return a.resolver }

// Ru returns a copy of the device secret; only tests and the privacy
// experiments use it (to compute expected anonymous IDs).
func (a *Agent) Ru() []byte { return append([]byte(nil), a.ru...) }

// InferredOpinions returns a copy of the agent's current inferred
// ratings by entity key. Experiment scorers compare these against the
// simulator's ground truth; the RSP never can (it sees them only
// anonymously).
func (a *Agent) InferredOpinions() map[string]float64 {
	out := make(map[string]float64, len(a.inferred))
	for k, v := range a.inferred {
		out[k] = v
	}
	return out
}

// Evidence exposes the evidence the predictor sees for one entity, so
// experiments can run baseline predictors over identical inputs.
func (a *Agent) Evidence(entityKey string) inference.EntityEvidence {
	return a.evidenceFor(entityKey)
}
