package rspserver

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/inference"
	"opinions/internal/reviews"
	"opinions/internal/simclock"
	"opinions/internal/stats"
	"opinions/internal/store"
	"opinions/internal/world"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	catalog := []*world.Entity{
		{ID: "a", Service: world.Yelp, Zip: "48104", Category: "chinese", Name: "Golden Wok", Quality: 4, Phone: "+17345550001"},
		{ID: "b", Service: world.Yelp, Zip: "48104", Category: "chinese", Name: "Lucky Bamboo", Quality: 3},
		{ID: "v", Service: world.YouTube, Category: "video", Name: "vid", Interactions: 50000, Feedback: 400},
	}
	srv, err := New(Config{Catalog: catalog, Clock: simclock.NewSim(simclock.Epoch), KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// fetchToken runs the full blind-token protocol over HTTP.
func fetchToken(t *testing.T, base, device string) WireToken {
	t.Helper()
	var keyResp TokenKeyResponse
	if resp := getJSON(t, base+"/api/token/key", &keyResp); resp.StatusCode != 200 {
		t.Fatalf("token key status %d", resp.StatusCode)
	}
	n, _ := new(big.Int).SetString(keyResp.N, 10)
	pub := &rsa.PublicKey{N: n, E: keyResp.E}
	serial := make([]byte, 32)
	if _, err := rand.Read(serial); err != nil {
		t.Fatal(err)
	}
	blinded, unblind, err := blindsig.Blind(pub, serial, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var signResp TokenSignResponse
	resp := postJSON(t, base+"/api/token", TokenSignRequest{Device: device, Blinded: blinded.String()}, &signResp)
	if resp.StatusCode != 200 {
		t.Fatalf("token sign status %d", resp.StatusCode)
	}
	blindSig, _ := new(big.Int).SetString(signResp.BlindSig, 10)
	return FromToken(blindsig.Token{Msg: serial, Sig: unblind(blindSig)})
}

func TestMetaEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var meta MetaResponse
	if resp := getJSON(t, ts.URL+"/api/meta", &meta); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(meta.Services) != 2 {
		t.Fatalf("services = %d", len(meta.Services))
	}
}

func TestSearchAndEntityEndpoints(t *testing.T) {
	_, ts := testServer(t)
	var results []WireResult
	resp := getJSON(t, ts.URL+"/api/search?service=yelp&zip=48104&category=chinese", &results)
	if resp.StatusCode != 200 || len(results) != 2 {
		t.Fatalf("status %d, results %d", resp.StatusCode, len(results))
	}
	var one WireResult
	resp = getJSON(t, ts.URL+"/api/entity?key=yelp/a", &one)
	if resp.StatusCode != 200 || one.Entity.Name != "Golden Wok" {
		t.Fatalf("entity status %d, name %q", resp.StatusCode, one.Entity.Name)
	}
	if resp := getJSON(t, ts.URL+"/api/entity?key=yelp/zzz", nil); resp.StatusCode != 404 {
		t.Fatalf("missing entity status %d", resp.StatusCode)
	}
}

func TestEntityExposesInteractionCounts(t *testing.T) {
	_, ts := testServer(t)
	var one WireResult
	getJSON(t, ts.URL+"/api/entity?key=youtube/v", &one)
	if one.Entity.Interactions != 50000 || one.Entity.Feedback != 400 {
		t.Fatalf("interaction counts = %d/%d", one.Entity.Interactions, one.Entity.Feedback)
	}
}

func TestPostAndGetReviews(t *testing.T) {
	_, ts := testServer(t)
	resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{
		Entity: "yelp/a", Author: "alice", Rating: 4.5, Text: "solid dumplings",
	}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post status %d", resp.StatusCode)
	}
	var revs []map[string]any
	getJSON(t, ts.URL+"/api/reviews?entity=yelp/a", &revs)
	if len(revs) != 1 {
		t.Fatalf("reviews = %d", len(revs))
	}
	// Unknown entity and bad rating rejected.
	if resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/zzz", Rating: 3}, nil); resp.StatusCode != 404 {
		t.Fatalf("unknown entity status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Rating: 9}, nil); resp.StatusCode != 400 {
		t.Fatalf("bad rating status %d", resp.StatusCode)
	}
}

func TestDirectoryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var ents []WireEntity
	getJSON(t, ts.URL+"/api/directory?service=yelp", &ents)
	if len(ents) != 2 {
		t.Fatalf("directory = %d", len(ents))
	}
	var all []WireEntity
	getJSON(t, ts.URL+"/api/directory", &all)
	if len(all) != 3 {
		t.Fatalf("full directory = %d", len(all))
	}
}

func TestUploadFlow(t *testing.T) {
	srv, ts := testServer(t)
	tok := fetchToken(t, ts.URL, "device-1")
	rating := 4.2
	req := UploadRequest{
		AnonID: "anon-abc", Entity: "yelp/a",
		Record: &WireRecord{Kind: "visit", Start: simclock.Epoch, DurationS: 3600, DistanceM: 2000},
		Rating: &rating,
		Token:  tok,
		Key:    "key-flow-1",
	}
	resp := postJSON(t, ts.URL+"/api/upload", req, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	_, ops, hists := srv.Stores()
	if ops.Count("yelp/a") != 1 {
		t.Fatal("rating not stored")
	}
	if len(hists.ByEntity("yelp/a")) != 1 {
		t.Fatal("history not stored")
	}
	// The same token under a new key is a double spend.
	req.Key = "key-flow-2"
	resp = postJSON(t, ts.URL+"/api/upload", req, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replay status %d", resp.StatusCode)
	}
}

func TestUploadValidation(t *testing.T) {
	_, ts := testServer(t)
	tok := fetchToken(t, ts.URL, "device-2")
	// No record, no rating.
	resp := postJSON(t, ts.URL+"/api/upload", UploadRequest{AnonID: "x", Entity: "yelp/a", Token: tok, Key: "key-v1"}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("empty upload status %d", resp.StatusCode)
	}
	// Unknown entity.
	tok2 := fetchToken(t, ts.URL, "device-2")
	r := WireRecord{Kind: "visit", Start: simclock.Epoch, DurationS: 60}
	resp = postJSON(t, ts.URL+"/api/upload", UploadRequest{AnonID: "x", Entity: "yelp/zzz", Record: &r, Token: tok2, Key: "key-v2"}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("unknown entity status %d", resp.StatusCode)
	}
	// Forged token.
	forged := WireToken{Msg: "abcd", Sig: "12345"}
	resp = postJSON(t, ts.URL+"/api/upload", UploadRequest{AnonID: "x", Entity: "yelp/a", Record: &r, Token: forged, Key: "key-v3"}, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("forged token status %d", resp.StatusCode)
	}
	// Bad kind.
	tok3 := fetchToken(t, ts.URL, "device-2")
	bad := WireRecord{Kind: "teleport", Start: simclock.Epoch}
	resp = postJSON(t, ts.URL+"/api/upload", UploadRequest{AnonID: "x", Entity: "yelp/a", Record: &bad, Token: tok3, Key: "key-v4"}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bad kind status %d", resp.StatusCode)
	}
}

func TestUploadEntityMismatchConflict(t *testing.T) {
	_, ts := testServer(t)
	tok1 := fetchToken(t, ts.URL, "d")
	tok2 := fetchToken(t, ts.URL, "d")
	r := WireRecord{Kind: "visit", Start: simclock.Epoch, DurationS: 60}
	resp := postJSON(t, ts.URL+"/api/upload", UploadRequest{AnonID: "same-id", Entity: "yelp/a", Record: &r, Token: tok1, Key: "key-m1"}, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first upload status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/api/upload", UploadRequest{AnonID: "same-id", Entity: "yelp/b", Record: &r, Token: tok2, Key: "key-m2"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatch status %d", resp.StatusCode)
	}
}

func TestTokenRateLimitOverHTTP(t *testing.T) {
	catalog := []*world.Entity{{ID: "a", Service: world.Yelp, Zip: "z", Category: "c"}}
	srv, err := New(Config{Catalog: catalog, KeyBits: 1024, TokenRate: 1, TokenPeriod: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fetchToken(t, ts.URL, "dev")
	// Second request must be 429.
	var keyResp TokenKeyResponse
	getJSON(t, ts.URL+"/api/token/key", &keyResp)
	resp := postJSON(t, ts.URL+"/api/token", TokenSignRequest{Device: "dev", Blinded: "12345"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate limit status %d", resp.StatusCode)
	}
}

func TestModelTrainingFlow(t *testing.T) {
	_, ts := testServer(t)
	if resp := getJSON(t, ts.URL+"/api/model", nil); resp.StatusCode != 404 {
		t.Fatalf("model before training: %d", resp.StatusCode)
	}
	rng := stats.NewRNG(1)
	for i := 0; i < 60; i++ {
		x := make([]float64, inference.NumFeatures)
		for j := range x {
			x[j] = rng.Float64()
		}
		y := x[0]*3 + 1
		if resp := postJSON(t, ts.URL+"/api/train", TrainRequest{Features: x, Rating: clampRating(y)}, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("train status %d", resp.StatusCode)
		}
	}
	var m inference.ModelSet
	resp := postJSON(t, ts.URL+"/api/model/retrain", nil, &m)
	if resp.StatusCode != 200 {
		t.Fatalf("retrain status %d", resp.StatusCode)
	}
	if m.Global == nil || m.Global.N != 60 {
		t.Fatalf("model set = %+v", m)
	}
	var m2 inference.ModelSet
	if resp := getJSON(t, ts.URL+"/api/model", &m2); resp.StatusCode != 200 {
		t.Fatalf("model fetch status %d", resp.StatusCode)
	}
	if m2.Global.N != m.Global.N || len(m2.Global.Weights) != len(m.Global.Weights) {
		t.Fatal("served model differs from trained model")
	}
}

func clampRating(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 5 {
		return 5
	}
	return v
}

func TestTrainValidationOverHTTP(t *testing.T) {
	_, ts := testServer(t)
	resp := postJSON(t, ts.URL+"/api/train", TrainRequest{Features: []float64{1, 2}, Rating: 3}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("short features status %d", resp.StatusCode)
	}
	x := make([]float64, inference.NumFeatures)
	resp = postJSON(t, ts.URL+"/api/train", TrainRequest{Features: x, Rating: 9}, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bad rating status %d", resp.StatusCode)
	}
}

func TestRetrainWithoutDataFails(t *testing.T) {
	_, ts := testServer(t)
	if resp := postJSON(t, ts.URL+"/api/model/retrain", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("retrain empty status %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Rating: 4}, nil)
	var st StatsResponse
	getJSON(t, ts.URL+"/api/stats", &st)
	if st.Entities != 3 || st.Reviews != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSweepFraudEmpty(t *testing.T) {
	_, ts := testServer(t)
	var empty SweepResponse
	if resp := postJSON(t, ts.URL+"/api/fraud/sweep", nil, &empty); resp.StatusCode != 200 || empty.Scanned != 0 || empty.Discarded != 0 {
		t.Fatalf("empty sweep status %d, %+v", resp.StatusCode, empty)
	}
}

func TestFraudSweepEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	_, _, hists := srv.Stores()
	// A healthy population plus one call-spammer.
	rng := stats.NewRNG(2)
	for i := 0; i < 80; i++ {
		id := fmt.Sprintf("honest-%d", i)
		cur := simclock.Epoch.Add(time.Duration(rng.Intn(72)) * time.Hour)
		for k := 0; k < 3+rng.Intn(5); k++ {
			rec := WireRecord{Kind: "visit", Start: cur, DurationS: float64(1800 + rng.Intn(4800)), DistanceM: 1000}
			r, _ := rec.ToRecord("yelp/a")
			_ = hists.Append(id, "yelp/a", r)
			cur = cur.Add(time.Duration(72+rng.Intn(240)) * time.Hour)
		}
	}
	spam := "spammer"
	cur := simclock.Epoch
	for k := 0; k < 12; k++ {
		rec := WireRecord{Kind: "call", Start: cur, DurationS: 3}
		r, _ := rec.ToRecord("yelp/a")
		_ = hists.Append(spam, "yelp/a", r)
		cur = cur.Add(45 * time.Second)
	}
	var sweep SweepResponse
	resp := postJSON(t, ts.URL+"/api/fraud/sweep", nil, &sweep)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if sweep.Scanned != 81 {
		t.Fatalf("scanned = %d", sweep.Scanned)
	}
	if sweep.Discarded < 1 {
		t.Fatal("spammer not discarded")
	}
	// Spammer's history must be gone.
	for _, h := range hists.ByEntity("yelp/a") {
		if h.AnonID == spam {
			t.Fatal("spammer history still present")
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t)
	for _, ep := range []string{"/api/meta", "/api/search", "/api/entity", "/api/directory", "/api/token/key", "/api/model", "/api/stats"} {
		resp := postJSON(t, ts.URL+ep, struct{}{}, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status %d", ep, resp.StatusCode)
		}
	}
	for _, ep := range []string{"/api/token", "/api/upload", "/api/train", "/api/model/retrain", "/api/fraud/sweep"} {
		resp := getJSON(t, ts.URL+ep, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s status %d", ep, resp.StatusCode)
		}
	}
}

func TestSearchBadLimit(t *testing.T) {
	_, ts := testServer(t)
	if resp := getJSON(t, ts.URL+"/api/search?limit=abc", nil); resp.StatusCode != 400 {
		t.Fatalf("bad limit status %d", resp.StatusCode)
	}
}

// TestSweptIDCannotRebind: a sweep drops a history but leaves its
// anonymous ID bound to the entity, so the ID cannot start a history
// on another entity (409 — an honest client, whose IDs are
// H(ru‖entity), never tries), while re-uploading to the same entity
// still works.
func TestSweptIDCannotRebind(t *testing.T) {
	srv, ts := testServer(t)
	upload := func(entity, key string) int {
		t.Helper()
		return postJSON(t, ts.URL+"/api/upload", UploadRequest{
			AnonID: "anon-swept", Entity: entity,
			Record: &WireRecord{Kind: "visit", Start: simclock.Epoch, DurationS: 600},
			Token:  fetchToken(t, ts.URL, "dev-"+key), Key: key,
		}, nil).StatusCode
	}
	if code := upload("yelp/a", "key-rebind-1"); code != http.StatusAccepted {
		t.Fatalf("first upload status %d", code)
	}
	if err := srv.Store().Commit(&store.Record{Kind: store.KindSweep, Entity: "yelp/a", Dropped: []string{"anon-swept"}}); err != nil {
		t.Fatal(err)
	}
	if n := len(srv.Store().Histories().ByEntity("yelp/a")); n != 0 {
		t.Fatalf("sweep left %d histories on yelp/a", n)
	}
	if code := upload("yelp/b", "key-rebind-2"); code != http.StatusConflict {
		t.Fatalf("re-binding a swept ID to another entity: status %d, want 409", code)
	}
	if code := upload("yelp/a", "key-rebind-3"); code != http.StatusAccepted {
		t.Fatalf("re-upload to the same entity after the sweep: status %d, want 202", code)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	srv, ts := testServer(t)
	// Populate every store.
	postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Author: "alice", Rating: 4}, nil)
	tok := fetchToken(t, ts.URL, "dev")
	rating := 3.5
	postJSON(t, ts.URL+"/api/upload", UploadRequest{
		AnonID: "anon1", Entity: "yelp/a",
		Record: &WireRecord{Kind: "visit", Start: simclock.Epoch, DurationS: 1800, DistanceM: 900},
		Rating: &rating, Token: tok, Key: "key-roundtrip",
	}, nil)
	rng := stats.NewRNG(4)
	for i := 0; i < 40; i++ {
		x := make([]float64, inference.NumFeatures)
		for j := range x {
			x[j] = rng.Float64()
		}
		_ = srv.AddTrainingPair(x, 3, "cafe")
	}
	if _, err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}

	snap := srv.Store().Snapshot()

	// A fresh server restores to identical state.
	catalog := srv.Catalog()
	srv2, err := New(Config{Catalog: catalog, KeyBits: 1024, Clock: simclock.NewSim(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Store().Restore(snap); err != nil {
		t.Fatal(err)
	}
	rev2, ops2, hists2 := srv2.Stores()
	if rev2.TotalReviews() != 1 || ops2.Total() != 1 {
		t.Fatalf("restored reviews=%d opinions=%d", rev2.TotalReviews(), ops2.Total())
	}
	hs := hists2.Stats()
	if hs.Histories != 1 || hs.Records != 1 {
		t.Fatalf("restored histories = %+v", hs)
	}
	if m := srv2.Models(); m == nil || m.Global == nil || m.Global.N != 40 {
		t.Fatal("model not restored")
	}
	if srv2.TrainingPairs() != 40 {
		t.Fatalf("training pairs = %d", srv2.TrainingPairs())
	}
	// Restored reviews keep IDs unique for future posts.
	r, err := rev2.Post(reviewsPost("yelp/a"))
	if err != nil {
		t.Fatal(err)
	}
	if r.ID == snap.Reviews[0].ID {
		t.Fatal("restored seq collides with old IDs")
	}
}

func TestRestoreRejectsBadSnapshot(t *testing.T) {
	srv, _ := testServer(t)
	if err := srv.Store().Restore(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestWireRecordRoundTrip(t *testing.T) {
	rec := WireRecord{Kind: "payment", Start: simclock.Epoch, DurationS: 0, Amount: 42.5}
	r, err := rec.ToRecord("yelp/a")
	if err != nil {
		t.Fatal(err)
	}
	back := FromRecord(r)
	if back.Kind != "payment" || back.Amount != 42.5 {
		t.Fatalf("round trip = %+v", back)
	}
	if _, err := (WireRecord{Kind: "visit", DurationS: -1}).ToRecord("e"); err == nil {
		t.Fatal("negative duration accepted")
	}
}

// reviewsPost builds a minimal valid review for store-level posting.
func reviewsPost(entity string) reviews.Review {
	return reviews.Review{Entity: entity, Author: "x", Rating: 3, Time: simclock.Epoch}
}

// A sign error's status says whose fault it is: an out-of-range blinded
// value is the client's (400), an exhausted budget is 429, and a
// signing fault or anything unforeseen is the server's (500).
func TestTokenSignStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{blindsig.ErrBlindedOutOfRange, http.StatusBadRequest},
		{blindsig.ErrRateLimited, http.StatusTooManyRequests},
		{blindsig.ErrSignFault, http.StatusInternalServerError},
		{fmt.Errorf("issuer: %w", blindsig.ErrRateLimited), http.StatusTooManyRequests},
		{errors.New("unforeseen"), http.StatusInternalServerError},
	} {
		if got := tokenSignStatus(tc.err); got != tc.want {
			t.Errorf("tokenSignStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
