// Package rspserver is the Recommendation Sharing Provider service of
// Figure 2: the HTTP API that accepts explicit reviews and anonymous
// inference uploads, answers search queries with both review and
// inferred-opinion summaries, issues rate-limited blind-signed upload
// tokens, trains and serves the inference model, and runs the §4.3
// fraud sweep over its anonymous history store.
//
// The API deliberately has no endpoint that retrieves a history by its
// anonymous ID — the store is update-only toward clients (§4.2).
package rspserver

import (
	"bytes"
	"cmp"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"opinions/internal/aggregate"
	"opinions/internal/attest"
	"opinions/internal/blindsig"
	"opinions/internal/dp"
	"opinions/internal/fraud"
	"opinions/internal/history"
	"opinions/internal/inference"
	"opinions/internal/interaction"
	"opinions/internal/readcache"
	"opinions/internal/reviews"
	"opinions/internal/search"
	"opinions/internal/simclock"
	"opinions/internal/store"
	"opinions/internal/world"
)

// Config configures a server.
type Config struct {
	// Catalog is the entity directory the service fronts.
	Catalog []*world.Entity
	// Clock defaults to the real clock.
	Clock simclock.Clock
	// TokenRate and TokenPeriod bound per-device token issuance
	// (defaults: 50 per 24h).
	TokenRate   int
	TokenPeriod time.Duration
	// KeyBits sizes the issuer's RSA key (default 2048; tests use less).
	KeyBits int
	// Issuer, when non-nil, is used instead of generating a fresh token
	// key (KeyBits, TokenRate, and TokenPeriod are then ignored). A
	// replicated leader/follower pair is handed the same issuer so
	// tokens clients fetched before a failover stay redeemable after it
	// and both release the same privacy noise (PrivacyEpsilon).
	Issuer *blindsig.Issuer
	// Zips lists the query locations exposed in /api/meta; optional.
	Zips []string
	// Attestation, when non-nil, gates token issuance on remote
	// attestation (§4.3): only devices with a valid, unexpired quote of
	// a known-good client build receive upload tokens.
	Attestation *attest.Verifier
	// PrivacyEpsilon, when positive, releases all inference-derived
	// aggregates (inferred counts/histograms, Figure-3 visualizations)
	// through an ε-differentially-private Laplace mechanism — closing
	// the small-count leakage the paper's cited de-anonymization work
	// [24, 25] warns about. Explicit reviews are public posts and are
	// released exactly. The noise is keyed by the issuer's private key
	// and the released aggregate, so one state gets one sample.
	PrivacyEpsilon float64
	// Store, when non-nil, is the durable state layer every mutation
	// commits through — typically store.Open with a WAL directory, after
	// recovery. Nil builds a memory-only store: same commit interface,
	// no log (tests and simulations).
	Store *store.Store
}

// Server implements the RSP. Construct with New.
//
// All state lives in the store.Store: every mutation path — uploads,
// reviews, training pairs, retrains, fraud sweeps — builds a
// store.Record and goes through st.Commit, which serializes applies,
// logs them, and (on a durable store) acknowledges after fsync. Reads
// go straight to the store's striped sub-stores and never contend with
// the commit lock.
type Server struct {
	catalog  []*world.Entity
	engine   *search.Engine
	issuer   *blindsig.Issuer
	redeemer *blindsig.Redeemer
	clock    simclock.Clock
	meta     MetaResponse
	attestor *attest.Verifier
	st       *store.Store

	// cache holds pre-encoded entity responses, invalidated by the
	// store's commit hook.
	cache *readcache.Cache
	// dirs holds the directory listing of each catalog service kind and
	// of "" (all kinds). The catalog never changes, so each body is
	// encoded once, on its first request.
	dirs map[string]*dirBody

	// dpEpsilon, when positive, noises every release, keyed by dpSecret.
	dpEpsilon float64
	dpSecret  []byte
}

// dirBody is one directory listing, encoded on first request.
type dirBody struct {
	once sync.Once
	body []byte
	err  error
}

// New builds a server over the catalog.
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.TokenRate <= 0 {
		cfg.TokenRate = 50
	}
	if cfg.TokenPeriod <= 0 {
		cfg.TokenPeriod = 24 * time.Hour
	}
	if cfg.KeyBits <= 0 {
		cfg.KeyBits = 2048
	}
	issuer := cfg.Issuer
	if issuer == nil {
		var err error
		issuer, err = blindsig.NewIssuer(cfg.KeyBits, cfg.TokenRate, cfg.TokenPeriod, cfg.Clock)
		if err != nil {
			return nil, fmt.Errorf("rspserver: %w", err)
		}
	}
	st := cfg.Store
	if st == nil {
		var err error
		st, err = store.Open(store.Options{Clock: cfg.Clock})
		if err != nil {
			return nil, fmt.Errorf("rspserver: %w", err)
		}
	}
	s := &Server{
		catalog:  cfg.Catalog,
		engine:   search.NewEngine(cfg.Catalog, st.Reviews(), st.Opinions(), st.Histories()),
		issuer:   issuer,
		redeemer: blindsig.NewRedeemer(issuer.PublicKey()),
		clock:    cfg.Clock,
		attestor: cfg.Attestation,
		st:       st,
		meta:     buildMeta(cfg.Catalog, cfg.Zips),
		cache:    readcache.New(),
		dirs:     map[string]*dirBody{"": {}},

		dpEpsilon: cfg.PrivacyEpsilon,
		dpSecret:  issuer.Secret("opinions/rspserver: dp release noise"),
	}
	for _, ms := range s.meta.Services {
		s.dirs[ms.Kind] = &dirBody{}
	}
	st.SetCommitHook(s.invalidateOnCommit)
	// Restores jump timelines, so per-entity invalidation cannot bound
	// what changed. Hooking the store covers every Restore caller —
	// including a replication follower seeding from a leader snapshot,
	// which never goes through the server.
	st.SetRestoreHook(s.cache.Reset)
	return s, nil
}

// cacheNSEntity is the read-cache namespace of entity bodies.
const cacheNSEntity = "entity"

// invalidateOnCommit is the store commit hook: it maps each applied
// record to the cache entries it can stale. Uploads, sweep records and
// reviews touch exactly one entity's aggregates, so they invalidate
// that entity's stripe only. Training pairs and retrains change no
// served read state: no cached response reads the model.
func (s *Server) invalidateOnCommit(rec *store.Record) {
	switch rec.Kind {
	case store.KindUpload, store.KindSweep:
		s.cache.Invalidate(rec.Entity, cacheNSEntity)
	case store.KindReview:
		if rec.Review != nil {
			s.cache.Invalidate(rec.Review.Entity, cacheNSEntity)
		}
	}
}

// ReadCache exposes the response cache for introspection (tests).
func (s *Server) ReadCache() *readcache.Cache { return s.cache }

// releaseResult applies the differential-privacy mechanism (when
// enabled) to every inference-derived field of a result before it
// leaves the server, and recomputes Score from the released fields —
// the exact score is a function of the exact inferred count and mean.
// Explicit-review fields pass through untouched.
//
// The noise is keyed by HMAC-SHA256 under the deployment secret over
// the entity, ε, and exactly the fields noised here, in a canonical
// encoding: fmt prints maps in key order and floats in their shortest
// round-trip form, and cannot fail. Repeated reads of one state
// thus return one sample: averaging them gains a reader nothing, and a
// released body can be cached like any other. Review fields and Score
// stay out of the key: posting a review needs no token, so if a review
// drew fresh noise anyone could average it away by posting reviews. ε
// stays in: releases of one state at two budgets drawn from shared
// uniforms would let a reader solve for the truth.
func (s *Server) releaseResult(w WireResult) WireResult {
	if s.dpEpsilon <= 0 {
		return w
	}
	mac := hmac.New(sha256.New, s.dpSecret)
	fmt.Fprintf(mac, "%q %v", w.Entity.Key, []any{s.dpEpsilon, w.InferredCount, w.InferredMean, w.InferredHistogram,
		w.VisitsPerUser, w.MeanDistanceKmByVisits, w.RawInteractions, w.EffectiveInteractions, w.RepeatFraction})
	m := dp.New(s.dpEpsilon, [32]byte(mac.Sum(nil)))

	noisedCount := m.Count(w.InferredCount)
	w.InferredCount = int(math.Round(noisedCount))
	if w.InferredCount < 3 {
		// Too few contributors to release a mean or histogram safely.
		w.InferredMean = 0
		w.InferredHistogram = [11]int{}
	} else {
		w.InferredMean, _ = m.Mean(w.InferredMean*noisedCount, int(noisedCount), 0, 5)
		fh := m.FixedHistogram(w.InferredHistogram)
		for i, v := range fh {
			w.InferredHistogram[i] = int(math.Round(v))
		}
	}

	if w.VisitsPerUser != nil {
		// RepeatFraction is a share of visitors, so its population is
		// the exact visitor count; Mean noises it.
		visitors := 0
		for _, n := range w.VisitsPerUser {
			visitors += n
		}
		noised := m.Histogram(w.VisitsPerUser)
		out := make(map[int]int, len(noised))
		for k, v := range noised {
			if r := int(math.Round(v)); r > 0 {
				out[k] = r
			}
		}
		w.VisitsPerUser = out
		// Per-bin distance means: suppress bins whose released user
		// count is tiny, noise the rest.
		dist := make(map[int]float64, len(w.MeanDistanceKmByVisits))
		for _, k := range dp.SortedKeys(w.MeanDistanceKmByVisits) {
			n := out[k]
			if mean, ok := m.Mean(w.MeanDistanceKmByVisits[k]*float64(n), n, 0, 50); ok {
				dist[k] = mean
			}
		}
		w.MeanDistanceKmByVisits = dist
		w.RawInteractions = int(math.Round(m.Count(w.RawInteractions)))
		w.EffectiveInteractions = m.Count(int(math.Round(w.EffectiveInteractions)))
		w.RepeatFraction, _ = m.Mean(w.RepeatFraction*float64(visitors), visitors, 0, 1)
	}
	w.Score = search.Score(w.ReviewCount, w.ReviewMean, w.InferredCount, w.InferredMean)
	return w
}

func buildMeta(catalog []*world.Entity, zips []string) MetaResponse {
	type svcAgg struct {
		cats map[string]bool
		zips map[string]bool
	}
	bySvc := map[world.ServiceKind]*svcAgg{}
	for _, e := range catalog {
		a := bySvc[e.Service]
		if a == nil {
			a = &svcAgg{cats: map[string]bool{}, zips: map[string]bool{}}
			bySvc[e.Service] = a
		}
		a.cats[e.Category] = true
		if e.Zip != "" {
			a.zips[e.Zip] = true
		}
	}
	var meta MetaResponse
	var kinds []string
	for k := range bySvc {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		a := bySvc[world.ServiceKind(k)]
		ms := MetaService{Kind: k, Name: k}
		for c := range a.cats {
			ms.Categories = append(ms.Categories, c)
		}
		sort.Strings(ms.Categories)
		if len(zips) > 0 {
			ms.Zips = zips
		} else {
			for z := range a.zips {
				ms.Zips = append(ms.Zips, z)
			}
			sort.Strings(ms.Zips)
		}
		meta.Services = append(meta.Services, ms)
	}
	return meta
}

// Stores exposes the underlying read stores for in-process composition
// (the experiment harness and the core facade read these directly
// instead of going through HTTP). Mutations must go through the
// server's commit paths, never straight to these stores, or they
// bypass the write-ahead log.
func (s *Server) Stores() (*reviews.Store, *aggregate.OpinionStore, *history.ServerStore) {
	return s.st.Reviews(), s.st.Opinions(), s.st.Histories()
}

// Store returns the durable state layer the server commits through.
func (s *Server) Store() *store.Store { return s.st }

// Engine returns the search engine.
func (s *Server) Engine() *search.Engine { return s.engine }

// Catalog returns the entity directory the server fronts.
func (s *Server) Catalog() []*world.Entity { return s.catalog }

// Issuer returns the token issuer.
func (s *Server) Issuer() *blindsig.Issuer { return s.issuer }

// Attestor returns the attestation verifier, or nil when attestation is
// not enforced.
func (s *Server) Attestor() *attest.Verifier { return s.attestor }

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/meta", s.handleMeta)
	mux.HandleFunc("/api/search", s.handleSearch)
	mux.HandleFunc("/api/entity", s.handleEntity)
	mux.HandleFunc("/api/reviews", s.handleReviews)
	mux.HandleFunc("/api/directory", s.handleDirectory)
	mux.HandleFunc("/api/token/key", s.handleTokenKey)
	mux.HandleFunc("/api/token", s.handleTokenSign)
	mux.HandleFunc("/api/attest/challenge", s.handleAttestChallenge)
	mux.HandleFunc("/api/attest/verify", s.handleAttestVerify)
	mux.HandleFunc("/api/upload", s.handleUpload)
	mux.HandleFunc("/api/model", s.handleModel)
	mux.HandleFunc("/api/train", s.handleTrain)
	mux.HandleFunc("/api/model/retrain", s.handleRetrain)
	mux.HandleFunc("/api/fraud/sweep", s.handleFraudSweep)
	mux.HandleFunc("/api/stats", s.handleStats)
	return mux
}

// jsonEncoder is a reusable buffer+encoder pair: the encoder is bound
// to the buffer once, so the hot encode path allocates neither.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := new(jsonEncoder)
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// maxPooledEncoder bounds the buffers the pool retains: a single huge
// directory response must not pin megabytes in every pool shard.
const maxPooledEncoder = 1 << 20

// release returns e to the pool unless its buffer grew past the cap —
// a partially-written encode counts toward growth too, so every exit
// path (success or error) goes through here.
func (e *jsonEncoder) release() {
	if e.buf.Cap() <= maxPooledEncoder {
		encPool.Put(e)
	}
}

// writeJSON encodes v through a pooled encoder and writes it with an
// exact Content-Length. Encoding into the buffer first (rather than
// streaming into the response) is what lets the same bytes feed the
// read cache and keeps a mid-encode error from escaping as a truncated
// 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	e := encPool.Get().(*jsonEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		e.release()
		writeJSONBytes(w, http.StatusInternalServerError, []byte(`{"error":"encoding response"}`+"\n"))
		return
	}
	writeJSONBytes(w, status, e.buf.Bytes())
	e.release()
}

// writeJSONBytes writes an already-encoded JSON body.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// encodeJSON renders v to a fresh byte slice via the encoder pool —
// the cache-fill path, where the bytes must outlive the pool cycle.
func encodeJSON(v any) ([]byte, error) {
	e := encPool.Get().(*jsonEncoder)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		e.release()
		return nil, err
	}
	body := append([]byte(nil), e.buf.Bytes()...)
	e.release()
	return body, nil
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// maxRequestBody bounds every mutating request's body. The load
// shedder caps concurrent requests, but without a per-body bound a
// single oversized POST could still balloon memory past it.
const maxRequestBody = 1 << 20

// decodeBody decodes a JSON request body bounded at maxRequestBody.
// On failure the response is already written — 413 when the body
// exceeded the bound, 400 for malformed JSON — and false is returned.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, s.meta)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	q := r.URL.Query()
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		var err error
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
	}
	results := s.engine.Search(search.Query{
		Service:  world.ServiceKind(q.Get("service")),
		Zip:      q.Get("zip"),
		Category: q.Get("category"),
		Limit:    limit,
	})
	out := make([]WireResult, len(results))
	for i, res := range results {
		out[i] = s.releaseResult(FromResult(res))
	}
	// Rank by the released score, which a reader can check against the
	// released fields. Ties keep the engine's order.
	slices.SortStableFunc(out, func(a, b WireResult) int { return cmp.Compare(b.Score, a.Score) })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEntity(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	key := r.URL.Query().Get("key")
	// The generation is captured before any store read; a commit
	// landing on this entity between here and the Put bumps it and the
	// fill is dropped rather than installed stale.
	body, gen, ok := s.cache.Get(cacheNSEntity, key)
	if ok {
		writeJSONBytes(w, http.StatusOK, body)
		return
	}
	ent := s.engine.Entity(key)
	if ent == nil {
		// Misses for unknown keys are never cached: the key space is
		// attacker-chosen and would grow the cache without bound.
		writeErr(w, http.StatusNotFound, fmt.Errorf("no entity %q", key))
		return
	}
	body, err := encodeJSON(s.releaseResult(FromResult(s.engine.Describe(ent))))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.cache.Put(cacheNSEntity, key, gen, body)
	writeJSONBytes(w, http.StatusOK, body)
}

func (s *Server) handleReviews(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		entity := q.Get("entity")
		// Malformed paging is a client error, not "page one": silently
		// swallowing a bad offset used to serve the first page under an
		// arbitrary label (the same contract handleSearch enforces).
		offset := 0
		if v := q.Get("offset"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", v))
				return
			}
			offset = n
		}
		limit := 20
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
				return
			}
			if n > 0 {
				limit = n
			}
		}
		if limit > 100 {
			limit = 100
		}
		writeJSON(w, http.StatusOK, s.st.Reviews().ForEntity(entity, offset, limit))
	case http.MethodPost:
		var req PostReviewRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if s.engine.Entity(req.Entity) == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no entity %q", req.Entity))
			return
		}
		rev, err := s.PostReview(req.Entity, req.Author, req.Rating, req.Text)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, store.ErrUnavailable) {
				status = http.StatusServiceUnavailable
			}
			writeErr(w, status, err)
			return
		}
		writeJSON(w, http.StatusCreated, rev)
	default:
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET or POST"))
	}
}

func (s *Server) handleDirectory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	svc := r.URL.Query().Get("service")
	d := s.dirs[svc]
	if d == nil {
		// No catalog entity is of an unknown kind.
		writeJSONBytes(w, http.StatusOK, []byte("[]\n"))
		return
	}
	d.once.Do(func() {
		// Initialized non-nil so an empty directory serializes as [] — a
		// stable array type for clients — rather than JSON null.
		out := []WireEntity{}
		for _, e := range s.catalog {
			if svc == "" || string(e.Service) == svc {
				out = append(out, FromEntity(e))
			}
		}
		d.body, d.err = encodeJSON(out)
	})
	if d.err != nil {
		writeErr(w, http.StatusInternalServerError, d.err)
		return
	}
	writeJSONBytes(w, http.StatusOK, d.body)
}

func (s *Server) handleTokenKey(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	pub := s.issuer.PublicKey()
	writeJSON(w, http.StatusOK, TokenKeyResponse{N: pub.N.String(), E: pub.E})
}

func (s *Server) handleTokenSign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req TokenSignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Device == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing device"))
		return
	}
	blinded, ok := new(big.Int).SetString(req.Blinded, 10)
	if !ok {
		writeErr(w, http.StatusBadRequest, errors.New("blinded not a number"))
		return
	}
	if s.attestor != nil && !s.attestor.IsAttested(req.Device) {
		writeErr(w, http.StatusForbidden, errors.New("device must pass remote attestation before receiving tokens"))
		return
	}
	sig, err := s.issuer.Sign(req.Device, blinded)
	if err != nil {
		status := tokenSignStatus(err)
		if status == http.StatusTooManyRequests {
			metricTokenRefusals.Inc()
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, TokenSignResponse{BlindSig: sig.String()})
}

// tokenSignStatus maps an Issuer.Sign error to its HTTP status: a
// blinded value out of range is the client's fault, an exhausted budget
// is 429, and anything else (a signing fault) is the server's.
func tokenSignStatus(err error) int {
	switch {
	case errors.Is(err, blindsig.ErrBlindedOutOfRange):
		return http.StatusBadRequest
	case errors.Is(err, blindsig.ErrRateLimited):
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleAttestChallenge(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if s.attestor == nil {
		writeErr(w, http.StatusNotFound, errors.New("attestation not enabled"))
		return
	}
	nonce, err := s.attestor.Challenge(nil)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, AttestChallengeResponse{Nonce: hexEncode(nonce)})
}

func (s *Server) handleAttestVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if s.attestor == nil {
		writeErr(w, http.StatusNotFound, errors.New("attestation not enabled"))
		return
	}
	var req AttestVerifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	quote, err := req.ToQuote()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.attestor.Verify(quote); err != nil {
		writeErr(w, http.StatusForbidden, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req UploadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.AcceptUpload(req); err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, blindsig.ErrTokenInvalid), errors.Is(err, blindsig.ErrTokenSpent):
			status = http.StatusForbidden
		case errors.Is(err, history.ErrEntityMismatch):
			status = http.StatusConflict
		case errors.Is(err, store.ErrUnavailable):
			// Durability is gone; a 503 sends the client back to its
			// spool, exactly like any other outage. Its retry lands
			// after a restart has recovered state from disk.
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct{}{})
}

// AcceptUpload applies an anonymous upload exactly once: validate,
// consult the dedup ledger, redeem the token, then commit one upload
// record — history append, inferred rating, and idempotency-key
// admission as a unit — through the durable store. Exposed for
// in-process composition.
//
// A replayed key — a retry after a truncated 2xx, or a spooled upload
// redelivered under a fresh token after an app restart — returns success
// without touching the stores, and a token-spent refusal on a key the
// ledger already holds is likewise success: the first delivery was
// applied, the client just never heard the answer.
func (s *Server) AcceptUpload(req UploadRequest) error {
	if req.AnonID == "" || req.Entity == "" || req.Key == "" {
		return errors.New("rspserver: upload missing anon_id, entity or idempotency key")
	}
	if req.Record == nil && req.Rating == nil {
		return errors.New("rspserver: upload carries neither record nor rating")
	}
	if s.engine.Entity(req.Entity) == nil {
		return fmt.Errorf("rspserver: upload for unknown entity %q", req.Entity)
	}
	// Validate the payload fully before spending anything: a malformed
	// upload must neither burn the token nor half-apply.
	var rec interaction.Record
	if req.Record != nil {
		var err error
		rec, err = req.Record.ToRecord(req.Entity)
		if err != nil {
			return err
		}
	}
	if req.Rating != nil && (*req.Rating < 0 || *req.Rating > 5) {
		return errors.New("rspserver: rating outside [0, 5]")
	}
	tok, err := req.Token.ToToken()
	if err != nil {
		return err
	}
	// Refuse before spending anything once durability is gone: the token
	// stays unspent and the key unclaimed, so the retry that lands after
	// a restart applies from scratch.
	if s.st.Failed() {
		return store.ErrUnavailable
	}
	ledger := s.st.Ledger()
	done, dup := ledger.Begin(req.Key)
	if done || dup {
		// Already applied (or a racing twin of this very request is
		// mid-apply and owns it): answer success, apply nothing, and
		// leave the token unspent for the fresh-token redelivery case.
		// The replay ack still goes through the replication barrier:
		// if the original commit is not yet follower-acked (its 503
		// was a barrier timeout), acking its replay here would let
		// the client forget an upload a failover could then lose.
		metricDedupReplays.Inc()
		return s.st.AckBarrierAll()
	}
	if err := s.redeemer.Redeem(tok); err != nil {
		ledger.Abort(req.Key)
		if errors.Is(err, blindsig.ErrTokenSpent) && ledger.Contains(req.Key) {
			// The same token+key was committed between our ledger
			// check and the redeem — the retry raced its twin. The
			// upload is applied; report success, not 403.
			metricDedupReplays.Inc()
			return s.st.AckBarrierAll()
		}
		return err
	}
	crec := &store.Record{Kind: store.KindUpload, AnonID: req.AnonID, Entity: req.Entity, Key: req.Key}
	if req.Record != nil {
		crec.Visit = &rec
	}
	if req.Rating != nil {
		rating := *req.Rating
		crec.Rating = &rating
	}
	if err := s.st.Commit(crec); err != nil {
		if !errors.Is(err, store.ErrReplicationLag) {
			// Whether the apply failed (key still only in flight) or the
			// log failed after the apply (key admitted but the client
			// will see an error, never an ack): erase every trace of the
			// key so the retry — possibly against a restarted server
			// whose fresh redeemer considers the token unspent — applies
			// from scratch rather than being swallowed as a replay.
			//
			// ErrReplicationLag is the exception: the record IS applied
			// and locally durable, only the follower ack is missing.
			// The key must stay in the ledger so the client's retry is
			// absorbed as a replay instead of applying twice.
			ledger.Remove(req.Key)
		}
		return err
	}
	return nil
}

// PostReview validates and commits one explicit review, returning it
// with its assigned ID.
func (s *Server) PostReview(entity, author string, rating float64, text string) (reviews.Review, error) {
	if s.engine.Entity(entity) == nil {
		return reviews.Review{}, fmt.Errorf("rspserver: no entity %q", entity)
	}
	rec := &store.Record{Kind: store.KindReview, Review: &reviews.Review{
		Entity: entity, Author: author, Rating: rating, Text: text, Time: s.clock.Now(),
	}}
	if err := s.st.Commit(rec); err != nil {
		return reviews.Review{}, err
	}
	return rec.Result().(reviews.Review), nil
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	m := s.st.Models()
	if m == nil {
		writeErr(w, http.StatusNotFound, errors.New("no model trained yet"))
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req TrainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.AddTrainingPair(req.Features, req.Rating, req.Category); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, store.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct{}{})
}

// AddTrainingPair stores one volunteered training example; category may
// be empty (the pair then informs only the global model).
func (s *Server) AddTrainingPair(features []float64, rating float64, category string) error {
	if len(features) != inference.NumFeatures {
		return fmt.Errorf("rspserver: %d features, want %d", len(features), inference.NumFeatures)
	}
	if rating < 0 || rating > 5 {
		return errors.New("rspserver: training rating outside [0, 5]")
	}
	return s.st.Commit(&store.Record{
		Kind:        store.KindTrainPair,
		Features:    append([]float64(nil), features...),
		TrainRating: rating,
		Category:    category,
	})
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	m, err := s.Retrain()
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, store.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// Retrain fits a fresh model set (global + per-category) on the
// accumulated training pairs and installs it. The retrain is itself a
// logged record on the training pairs' commit stripe: training is
// deterministic, so replay reproduces the exact model from the pairs
// replayed before it.
func (s *Server) Retrain() (*inference.ModelSet, error) {
	rec := &store.Record{Kind: store.KindRetrain}
	if err := s.st.Commit(rec); err != nil {
		return nil, err
	}
	return rec.Result().(*inference.ModelSet), nil
}

// Models returns the current model set, or nil.
func (s *Server) Models() *inference.ModelSet { return s.st.Models() }

// TrainingPairs returns how many volunteered examples are stored.
func (s *Server) TrainingPairs() int { return s.st.TrainingPairs() }

func (s *Server) handleFraudSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	scanned, discarded, err := s.FraudSweep()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, SweepResponse{Scanned: scanned, Discarded: discarded})
}

// FraudSweep builds the typical-user profile from all stored histories
// and drops the ones the §4.3 detector flags. It returns (scanned,
// discarded), discarded counting the drops committed. The detection
// runs against the striped read state; only the resulting drops are
// committed, one record per entity on that entity's commit stripe —
// the log records WHICH histories went, not the detector inputs, so
// replay cannot diverge. As many workers as the store has stripes
// commit the records concurrently, so records on one stripe share a
// group fsync and the stripes' fsyncs overlap. The first commit error
// stops the hand-out and is returned; the entities committed before it
// stay swept, and a re-run finishes the rest.
func (s *Server) FraudSweep() (int, int, error) {
	// An explicit latch check: a sweep that finds nothing to drop never
	// reaches Commit, and a degraded store must still answer 503 — not
	// a reassuring "scanned N, dropped 0".
	if s.st.Failed() {
		return 0, 0, store.ErrUnavailable
	}
	hists := s.st.Histories()
	var all []*history.EntityHistory
	for _, entity := range hists.Entities() {
		all = append(all, hists.ByEntity(entity)...)
	}
	if len(all) == 0 {
		return 0, 0, nil
	}
	det := fraud.NewDetector(fraud.BuildProfile(all))
	_, discarded := det.Filter(all)
	if len(discarded) == 0 {
		return len(all), 0, nil
	}
	// all, and so discarded, lists each entity's histories together.
	var recs []*store.Record
	for len(discarded) > 0 {
		n := 1
		for n < len(discarded) && discarded[n].Entity == discarded[0].Entity {
			n++
		}
		rec := &store.Record{Kind: store.KindSweep, Entity: discarded[0].Entity, Dropped: make([]string, n)}
		for i, h := range discarded[:n] {
			rec.Dropped[i] = h.AnonID
		}
		recs = append(recs, rec)
		discarded = discarded[n:]
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     int
		dropped  int
		firstErr error
	)
	for w := min(s.st.NumStripes(), len(recs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(recs) || firstErr != nil {
					mu.Unlock()
					return
				}
				rec := recs[next]
				next++
				mu.Unlock()
				err := s.st.Commit(rec)
				mu.Lock()
				switch {
				case err == nil:
					dropped += len(rec.Dropped)
				case firstErr == nil:
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return len(all), dropped, firstErr
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	hs := s.st.Histories().Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Entities:         len(s.catalog),
		Reviews:          s.st.Reviews().TotalReviews(),
		Histories:        hs.Histories,
		HistoryRecords:   hs.Records,
		InferredOpinions: s.st.Opinions().Total(),
		TrainingPairs:    s.TrainingPairs(),
	})
}
