package main

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"opinions/internal/aggregate"
	"opinions/internal/blindsig"
	"opinions/internal/fraud"
	"opinions/internal/history"
	"opinions/internal/inference"
	"opinions/internal/obs"
	"opinions/internal/readcache"
	"opinions/internal/rspserver"
	"opinions/internal/search"
	"opinions/internal/storage"
	"opinions/internal/store"
	"opinions/internal/world"
)

// ladder replays requests the traced window sent against in-process
// instances of each layer, outermost rung first. Every timed call is a
// span named after its rung; a rung's metric is the median of its
// spans, and a layer's self time is its rung minus the rung it
// encloses.
type ladder struct {
	tr   *Tracer
	sets map[string]*samples
	op   int
}

// rung times fn as one span of the named rung under parent.
func (l *ladder) rung(name string, parent int, fn func()) int {
	t0 := time.Now()
	fn()
	return l.add(name, t0, time.Since(t0), parent)
}

// add records a span the caller timed.
func (l *ladder) add(name string, start time.Time, d time.Duration, parent int) int {
	setOf(l.sets, name).add(d)
	return l.tr.Add(name, start, d, parent, l.op)
}

// mean times n calls of fn as one batch: for calls far below a
// microsecond a per-call clock reading would be most of the reading.
func (l *ladder) mean(name string, n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	l.tr.Add(name, t0, d, noSpan, 0)
	return float64(d.Nanoseconds()) / float64(n)
}

func (l *ladder) medianUS(name string) float64 {
	if s := l.sets[name]; s != nil {
		return us(s.quantile(0.5))
	}
	return 0
}

func (l *ladder) medianMS(name string) float64 { return l.medianUS(name) / 1000 }

// meanUS is a rung's mean, for setting beside a live histogram's
// Σ ÷ count: search cost is heavy-tailed, and a mean compares with a
// mean.
func (l *ladder) meanUS(name string) float64 {
	s := l.sets[name]
	if s == nil || s.n() == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.d {
		sum += d
	}
	return us(sum) / float64(s.n())
}

func serve(h http.Handler, method, uri string, body []byte) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, uri, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, uri, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// Ladder runs the traced run's in-process half and returns its
// per-layer metrics. Only rungs whose requests the workload actually
// sent are climbed, so a layer the workload bypasses reports 0.
func (h *Harness) Ladder(workload string, pl *Preload, preloadDirs []string, win *window, scratch string) (map[string]float64, error) {
	defer os.RemoveAll(scratch)
	l := &ladder{tr: win.tracer, sets: make(map[string]*samples)}
	out := make(map[string]float64)

	// The instance under the rungs: the same preload, opened as a
	// server opens it — fsync on, snapshot load plus tail replay.
	dir := filepath.Join(scratch, "state")
	if workload == Ring3 {
		// The sampled requests span all three partitions; the in-process
		// instance owns the whole key space, so it gets the whole preload.
		if err := WritePreload(dir, pl); err != nil {
			return nil, err
		}
	} else if err := copyDir(preloadDirs[0], dir); err != nil {
		return nil, err
	}
	var st *store.Store
	var err error
	l.rung("store.open", noSpan, func() {
		st, err = store.Open(store.Options{Dir: dir, CompactEvery: -1, Logger: quietLogger})
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: opening the preload: %w", err)
	}
	defer st.Close()
	out["store.open_ms"] = l.medianMS("store.open")

	srv, err := rspserver.New(rspserver.Config{
		Catalog: h.W.Catalog, KeyBits: h.P.KeyBits, Store: st,
		TokenRate: 1 << 30, TokenPeriod: time.Hour, // a fresh device per contribution never reaches a limit anyway
	})
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()

	// The middleware rspd -quiet puts in front of every API handler, over
	// a handler that does nothing: what a request pays before any route.
	chain := rspserver.Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		rspserver.WithRecovery(quietLogger), rspserver.WithTracing(obs.NewSpanRing(256)), rspserver.WithMetrics(),
		rspserver.WithTimeout(30*time.Second), rspserver.WithMaxInFlight(256, time.Second))
	for i := 0; i < h.P.LadderSample; i++ {
		l.rung("rspserver.chain", noSpan, func() { serve(chain, http.MethodGet, "/api/meta", nil) })
	}
	out["rspserver.chain_us"] = l.medianUS("rspserver.chain")
	chainMean := l.meanUS("rspserver.chain")

	h.readRungs(l, out, srv, handler, st, win.sentOps)
	if mean := l.meanUS("rspserver.serve_search"); mean > 0 {
		out["ladder.search_sum_us"] = mean + chainMean
	}
	if err := h.writeRungs(l, out, srv, handler, win.sentOps, scratch); err != nil {
		return nil, err
	}
	if mixes[workload].contribute > 0 {
		if err := stopTheWorldRungs(l, out, st); err != nil {
			return nil, err
		}
	}
	if workload == Maintain {
		if err := maintenanceRungs(l, out, srv, st, pl); err != nil {
			return nil, err
		}
	}
	if workload == Ring3 {
		ring, err := ringOfWidth(ringWidth)
		if err != nil {
			return nil, err
		}
		sink := 0
		out["cluster.partition_ns"] = l.mean("cluster.partition", len(h.W.Keys), func(i int) { sink += ring.Partition(h.W.Keys[i]) })
		_ = sink
	}
	return out, nil
}

// readRungs climbs the four read routes.
func (h *Harness) readRungs(l *ladder, out map[string]float64, srv *rspserver.Server, handler http.Handler, st *store.Store, sent map[OpKind][]Op) {
	engine := srv.Engine()
	var candidates []float64
	for _, op := range sent[OpSearch] {
		l.op++
		q := op.Query
		uri := op.uri(h.P.SearchLimit)
		outer := l.rung("rspserver.serve_search", noSpan, func() { serve(handler, http.MethodGet, uri, nil) })
		var results []search.Result
		query := search.Query{Service: world.ServiceKind(q.Service), Zip: q.Zip, Category: q.Category}
		inner := l.rung("search.search", outer, func() { results = engine.Search(query) })
		candidates = append(candidates, float64(len(results)))
		for _, r := range results {
			ent := r.Entity
			desc := l.rung("search.describe", inner, func() { engine.Describe(ent) })
			var hists []*history.EntityHistory
			l.rung("history.by_entity", desc, func() { hists = st.Histories().ByEntity(ent.Key()) })
			if len(hists) > 0 {
				l.rung("aggregate.build", desc, func() { aggregate.Build(ent.Key(), hists) })
			}
		}
	}
	out["rspserver.serve_search_us"] = l.medianUS("rspserver.serve_search")
	out["search.search_us"] = l.medianUS("search.search")
	out["search.describe_us"] = l.medianUS("search.describe")
	out["history.by_entity_us"] = l.medianUS("history.by_entity")
	out["aggregate.build_us"] = l.medianUS("aggregate.build")
	out["rspserver.search_codec_us"] = out["rspserver.serve_search_us"] - out["search.search_us"]
	if len(candidates) > 0 {
		var sum float64
		for _, c := range candidates {
			sum += c
		}
		out["search.candidates_per_query"] = sum / float64(len(candidates))
	}

	ents := sent[OpEntity]
	for _, op := range ents {
		l.op++
		uri := op.uri(0)
		l.rung("rspserver.serve_entity", noSpan, func() { serve(handler, http.MethodGet, uri, nil) })
	}
	out["rspserver.serve_entity_us"] = l.medianUS("rspserver.serve_entity")
	cache := readcache.New()
	body := []byte(`{"entity":{}}`)
	out["readcache.put_ns"] = l.mean("readcache.put", len(ents), func(i int) {
		_, gen, _ := cache.Get("entity", ents[i].Entity)
		cache.Put("entity", ents[i].Entity, gen, body)
	})
	out["readcache.get_ns"] = l.mean("readcache.get", len(ents), func(i int) { cache.Get("entity", ents[i].Entity) })

	for _, op := range sent[OpReviews] {
		l.op++
		uri := op.uri(0)
		outer := l.rung("rspserver.serve_reviews", noSpan, func() { serve(handler, http.MethodGet, uri, nil) })
		l.rung("reviews.page", outer, func() { st.Reviews().ForEntity(op.Entity, op.Offset, 20) })
	}
	out["rspserver.serve_reviews_us"] = l.medianUS("rspserver.serve_reviews")
	out["reviews.page_us"] = l.medianUS("reviews.page")

	for _, op := range sent[OpDirectory] {
		l.op++
		uri := op.uri(0)
		l.rung("rspserver.serve_directory", noSpan, func() { serve(handler, http.MethodGet, uri, nil) })
	}
	out["rspserver.serve_directory_us"] = l.medianUS("rspserver.serve_directory")
}

// writeRungs climbs the contribution: client blinding, token signing,
// the upload handler, AcceptUpload, redeem, and the commit ladder
// memory ⊂ WAL ⊂ WAL + fsync. A token is good for one redemption, so
// even-numbered contributions go through the handlers and odd-numbered
// ones through the functions the handlers enclose.
func (h *Harness) writeRungs(l *ladder, out map[string]float64, srv *rspserver.Server, handler http.Handler, sent map[OpKind][]Op, scratch string) error {
	contribs := sent[OpContribute]
	pub := srv.Issuer().PublicKey()
	loose := blindsig.NewRedeemer(pub) // redeems apart from the server's own spent set
	var records []*store.Record
	for i, op := range contribs {
		l.op++
		t0 := time.Now()
		blinded, unblind, err := blindsig.Blind(pub, op.Serial, rand.Reader)
		blindDur := time.Since(t0)
		if err != nil {
			return fmt.Errorf("ladder: blinding: %w", err)
		}

		var blindSig *big.Int
		if i%2 == 0 {
			body, _ := json.Marshal(rspserver.TokenSignRequest{Device: op.Device, Blinded: blinded.String()})
			var rec *httptest.ResponseRecorder
			l.rung("rspserver.serve_token", noSpan, func() { rec = serve(handler, http.MethodPost, "/api/token", body) })
			var signed rspserver.TokenSignResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &signed); err != nil || rec.Code != http.StatusOK {
				return fmt.Errorf("ladder: /api/token answered %d", rec.Code)
			}
			blindSig, _ = new(big.Int).SetString(signed.BlindSig, 10)
		} else {
			l.rung("blindsig.sign", noSpan, func() { blindSig, err = srv.Issuer().Sign(op.Device, blinded) })
			if err != nil {
				return fmt.Errorf("ladder: signing: %w", err)
			}
		}
		t1 := time.Now()
		sig := unblind(blindSig)
		valid := blindsig.Verify(pub, op.Serial, sig)
		l.add("rspclient.blind", t0, blindDur+time.Since(t1), noSpan)
		if !valid {
			return fmt.Errorf("ladder: token for %s does not verify", op.Device)
		}
		tok := blindsig.Token{Msg: op.Serial, Sig: sig}
		l.rung("blindsig.redeem", noSpan, func() { err = loose.Redeem(tok) })
		if err != nil {
			return fmt.Errorf("ladder: redeeming: %w", err)
		}

		req := uploadRequest(&op, sig)
		if i%2 == 0 {
			body, _ := json.Marshal(req)
			var rec *httptest.ResponseRecorder
			l.rung("rspserver.serve_upload", noSpan, func() { rec = serve(handler, http.MethodPost, "/api/upload", body) })
			if rec.Code != http.StatusAccepted {
				return fmt.Errorf("ladder: /api/upload answered %d: %s", rec.Code, rec.Body.String())
			}
		} else {
			l.rung("rspserver.accept_upload", noSpan, func() { err = srv.AcceptUpload(req) })
			if err != nil {
				return fmt.Errorf("ladder: AcceptUpload: %w", err)
			}
		}
		records = append(records, &store.Record{Kind: store.KindUpload, AnonID: op.AnonID, Entity: op.Entity,
			Visit: op.Visit, Rating: req.Rating, Key: op.Key})
	}
	for _, op := range sent[OpReviewPost] {
		l.op++
		body, _ := json.Marshal(rspserver.PostReviewRequest{Entity: op.Entity, Author: op.Author, Rating: op.Rating, Text: op.Text})
		l.rung("rspserver.serve_review_post", noSpan, func() { serve(handler, http.MethodPost, "/api/reviews", body) })
	}
	out["rspclient.blind_us"] = l.medianUS("rspclient.blind")
	out["rspserver.serve_token_us"] = l.medianUS("rspserver.serve_token")
	out["blindsig.sign_us"] = l.medianUS("blindsig.sign")
	out["blindsig.redeem_us"] = l.medianUS("blindsig.redeem")
	out["rspserver.serve_upload_us"] = l.medianUS("rspserver.serve_upload")
	out["rspserver.accept_upload_us"] = l.medianUS("rspserver.accept_upload")
	out["rspserver.upload_codec_us"] = out["rspserver.serve_upload_us"] - out["rspserver.accept_upload_us"]
	out["rspserver.serve_review_post_us"] = l.medianUS("rspserver.serve_review_post")
	if len(records) == 0 {
		return nil
	}

	ledger := store.NewLedger(0)
	out["store.ledger_begin_ns"] = l.mean("store.ledger_begin", len(records), func(i int) {
		ledger.Begin(records[i].Key)
		ledger.Commit(records[i].Key)
	})

	// The commit ladder on empty stores: what a commit costs does not
	// depend on how much state is behind it.
	commitRung := func(name string, opts store.Options, committers int) error {
		st, err := store.Open(opts)
		if err != nil {
			return err
		}
		defer st.Close()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(records); i += committers {
					rec := *records[i]
					t0 := time.Now()
					err := st.Commit(&rec)
					d := time.Since(t0)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					l.add(name, t0, d, noSpan)
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return firstErr
	}
	quiet := store.Options{CompactEvery: -1, Logger: quietLogger}
	for _, r := range []struct {
		name       string
		dir        string
		noSync     bool
		committers int
	}{
		{"store.commit_mem", "", false, 1},
		{"store.commit_nosync", "wal-nosync", true, 1},
		{"store.commit_fsync", "wal-fsync", false, 1},
		{"store.commit_fsync_2x", "wal-fsync-2x", false, 2},
	} {
		opts := quiet
		if r.dir != "" {
			opts.Dir = filepath.Join(scratch, r.dir)
		}
		opts.NoSync = r.noSync
		if err := commitRung(r.name, opts, r.committers); err != nil {
			return fmt.Errorf("ladder: %s: %w", r.name, err)
		}
		out[r.name+"_us"] = l.medianUS(r.name)
	}
	return nil
}

// stopTheWorldRungs times what holds every lane at once on a store of
// the preload's size: the snapshot copy, its encoding and decoding, and
// a whole compaction.
func stopTheWorldRungs(l *ladder, out map[string]float64, st *store.Store) error {
	var snap *storage.Snapshot
	for i := 0; i < 3; i++ {
		l.rung("store.snapshot", noSpan, func() { snap = st.Snapshot() })
	}
	var buf bytes.Buffer
	var err error
	l.rung("storage.write", noSpan, func() { err = storage.Write(&buf, snap) })
	if err != nil {
		return fmt.Errorf("ladder: storage.Write: %w", err)
	}
	out["storage.snapshot_bytes"] = float64(buf.Len())
	l.rung("storage.read", noSpan, func() { _, err = storage.Read(&buf) })
	if err != nil {
		return fmt.Errorf("ladder: storage.Read: %w", err)
	}
	l.rung("store.compact", noSpan, func() { err = st.Compact() })
	if err != nil {
		return fmt.Errorf("ladder: Compact: %w", err)
	}
	out["store.snapshot_ms"] = l.medianMS("store.snapshot")
	out["storage.write_ms"] = l.medianMS("storage.write")
	out["storage.read_ms"] = l.medianMS("storage.read")
	out["store.compact_ms"] = l.medianMS("store.compact")
	return nil
}

// maintenanceRungs times the operator's two commands on the preload and
// takes the sweep apart: profile, filter, and the cross-stripe barrier
// commit of the drops.
func maintenanceRungs(l *ladder, out map[string]float64, srv *rspserver.Server, st *store.Store, pl *Preload) error {
	hists := st.Histories()
	var all []*history.EntityHistory
	for _, entity := range hists.Entities() {
		all = append(all, hists.ByEntity(entity)...)
	}
	var profile *fraud.Profile
	l.rung("fraud.profile", noSpan, func() { profile = fraud.BuildProfile(all) })
	l.rung("fraud.filter", noSpan, func() { fraud.NewDetector(profile).Filter(all) })
	var err error
	l.rung("rspserver.sweep", noSpan, func() { _, _, err = srv.FraudSweep() })
	if err != nil {
		return fmt.Errorf("ladder: FraudSweep: %w", err)
	}
	// A sweep record naming nobody still takes every lane and writes to
	// every stripe's log: the barrier's own cost.
	l.rung("store.barrier_commit", noSpan, func() { err = st.Commit(&store.Record{Kind: store.KindSweep}) })
	if err != nil {
		return fmt.Errorf("ladder: barrier commit: %w", err)
	}
	l.rung("rspserver.retrain", noSpan, func() { _, err = srv.Retrain() })
	if err != nil {
		return fmt.Errorf("ladder: Retrain: %w", err)
	}
	var xs [][]float64
	var ys []float64
	var cats []string
	for _, rec := range append(append([]*store.Record(nil), pl.Bulk...), pl.Tail...) {
		if rec.Kind == store.KindTrainPair {
			xs, ys, cats = append(xs, rec.Features), append(ys, rec.TrainRating), append(cats, rec.Category)
		}
	}
	l.rung("inference.trainset", noSpan, func() { _, err = inference.TrainSet(xs, ys, cats, 1.0, 0) })
	if err != nil {
		return fmt.Errorf("ladder: TrainSet: %w", err)
	}
	out["fraud.profile_ms"] = l.medianMS("fraud.profile")
	out["fraud.filter_ms"] = l.medianMS("fraud.filter")
	out["rspserver.sweep_ms"] = l.medianMS("rspserver.sweep")
	out["store.barrier_commit_ms"] = l.medianMS("store.barrier_commit")
	out["rspserver.retrain_ms"] = l.medianMS("rspserver.retrain")
	out["inference.trainset_ms"] = l.medianMS("inference.trainset")
	return nil
}

// attribute prints the sums the issue asks for beside the measured
// values: what the rungs explain, and what they leave unattributed.
func attribute(layers map[string]float64) {
	floor, chain := layers["net.floor_us"], layers["rspserver.chain_us"]
	if sum := layers["ladder.search_sum_us"]; sum > 0 {
		layers["ladder.search_unattributed_us"] = layers["rspserver.live_search_us"] - sum
	}
	if layers["rspserver.serve_upload_us"] > 0 {
		sum := layers["rspclient.blind_us"] + layers["rspserver.serve_token_us"] + layers["rspserver.serve_upload_us"] + 2*chain + 2*floor
		layers["ladder.contribute_sum_us"] = sum
		layers["ladder.contribute_unattributed_us"] = layers["client.contribute_p50_ms"]*1000 - sum
	}
}
