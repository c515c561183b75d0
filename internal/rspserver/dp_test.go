package rspserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/interaction"
	"opinions/internal/search"
	"opinions/internal/simclock"
	"opinions/internal/store"
	"opinions/internal/world"
)

// dpServer builds a server with DP releases enabled, a fresh token
// issuer, and a populated inference layer.
func dpServer(t *testing.T, epsilon float64) (*Server, *httptest.Server) {
	t.Helper()
	return dpServerWith(t, epsilon, nil)
}

// dpServerWith is dpServer over the given issuer (nil: a fresh one).
// The stores are written directly, not through commits, so the read
// cache knows nothing of this state: mutate it after the first read
// only through a commit.
func dpServerWith(t *testing.T, epsilon float64, issuer *blindsig.Issuer) (*Server, *httptest.Server) {
	t.Helper()
	catalog := []*world.Entity{
		{ID: "a", Service: world.Yelp, Zip: "z", Category: "cafe", Name: "A"},
		{ID: "b", Service: world.Yelp, Zip: "z", Category: "cafe", Name: "B"},
	}
	srv, err := New(Config{
		Catalog: catalog, KeyBits: 512, Clock: simclock.NewSim(simclock.Epoch),
		PrivacyEpsilon: epsilon, Issuer: issuer,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ops, hists := srv.Stores()
	// Entity a: 200 inferred opinions and 50 visiting users.
	for i := 0; i < 200; i++ {
		ops.Add("yelp/a", 4.0)
	}
	for u := 0; u < 50; u++ {
		id := fmt.Sprintf("anon-%d", u)
		for v := 0; v < 1+u%3; v++ {
			_ = hists.Append(id, "yelp/a", interaction.Record{
				Entity: "yelp/a", Kind: interaction.VisitKind,
				Start:    simclock.Epoch.Add(time.Duration(u*100+v*1000) * time.Hour),
				Duration: time.Hour, DistanceFrom: 2000,
			})
		}
	}
	// Entity b: a privacy-critical small population (2 users, 2 opinions).
	ops.Add("yelp/b", 5)
	ops.Add("yelp/b", 5)
	_ = hists.Append("anon-x", "yelp/b", interaction.Record{
		Entity: "yelp/b", Kind: interaction.VisitKind, Start: simclock.Epoch, Duration: time.Hour,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestDPPreservesUtilityAtScale(t *testing.T) {
	_, ts := dpServer(t, 1.0)
	var res WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &res)
	// 200 opinions ± Laplace(1) noise.
	if res.InferredCount < 190 || res.InferredCount > 210 {
		t.Fatalf("released count = %d, want ≈200", res.InferredCount)
	}
	if res.InferredMean < 3.5 || res.InferredMean > 4.5 {
		t.Fatalf("released mean = %v, want ≈4.0", res.InferredMean)
	}
	if len(res.VisitsPerUser) == 0 {
		t.Fatal("visits histogram suppressed at scale")
	}
}

func TestDPSuppressesSmallPopulations(t *testing.T) {
	_, ts := dpServer(t, 1.0)
	// Query repeatedly; the small entity's mean must be frequently
	// suppressed or noised — never released exactly.
	exact := 0
	for i := 0; i < 30; i++ {
		var res WireResult
		getJSON(t, ts.URL+"/api/entity?key=yelp/b", &res)
		if res.InferredMean == 5.0 && res.InferredCount == 2 {
			exact++
		}
	}
	if exact > 5 {
		t.Fatalf("small population released exactly %d/30 times", exact)
	}
}

func TestDPDisabledIsExact(t *testing.T) {
	catalog := []*world.Entity{{ID: "a", Service: world.Yelp, Zip: "z", Category: "c"}}
	srv, err := New(Config{Catalog: catalog, KeyBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	_, ops, _ := srv.Stores()
	for i := 0; i < 7; i++ {
		ops.Add("yelp/a", 3)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var res WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &res)
	if res.InferredCount != 7 || res.InferredMean != 3 {
		t.Fatalf("exact release broken: %d, %v", res.InferredCount, res.InferredMean)
	}
}

// noised is the part of a release the mechanism noises.
func noised(t *testing.T, w WireResult) string {
	t.Helper()
	b, err := json.Marshal([]any{w.InferredCount, w.InferredMean, w.InferredHistogram, w.VisitsPerUser,
		w.MeanDistanceKmByVisits, w.RawInteractions, w.EffectiveInteractions, w.RepeatFraction})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The averaging attack: a reader who could draw fresh noise on every
// read would recover the exact aggregate by averaging. Every read of
// one state must be the same release — recomputed, not just cached, so
// the cache is flushed before each read. The entity has several
// visit-count and distance bins, so draws made in map order would show.
func TestDPRepeatedReadsReleaseOneSample(t *testing.T) {
	srv, ts := dpServer(t, 1.0)
	exact := srv.Engine().Describe(srv.Engine().Entity("yelp/a"))
	if exact.InferredCount != 200 || len(exact.Aggregate.VisitsPerUser) < 3 || len(exact.Aggregate.MeanDistanceKmByVisits) < 3 {
		t.Fatalf("fixture: %d opinions, visit bins %v, distance bins %v",
			exact.InferredCount, exact.Aggregate.VisitsPerUser, exact.Aggregate.MeanDistanceKmByVisits)
	}
	_, first := getBody(t, ts.URL+"/api/entity?key=yelp/a")
	var sum float64
	const reads = 2000
	for i := 0; i < reads; i++ {
		srv.ReadCache().Reset()
		status, body := getBody(t, ts.URL+"/api/entity?key=yelp/a")
		if status != 200 || !bytes.Equal(body, first) {
			t.Fatalf("read %d (status %d) released a second sample:\n%s\n%s", i, status, first, body)
		}
		var res WireResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		sum += float64(res.InferredCount)
	}
	var one WireResult
	if err := json.Unmarshal(first, &one); err != nil {
		t.Fatal(err)
	}
	if mean := sum / reads; mean != float64(one.InferredCount) {
		t.Fatalf("mean of %d reads = %v, want the one sample %d", reads, mean, one.InferredCount)
	}
}

// DP-mode entity reads go through the read cache like plain ones. A
// commit that changes the entity's inference state releases a new
// sample; a review changes only the exact review fields.
func TestDPEntityReadsUseCache(t *testing.T) {
	srv, ts := dpServer(t, 1.0)
	cache := srv.ReadCache()
	entity := func() (WireResult, []byte) {
		t.Helper()
		status, body := getBody(t, ts.URL+"/api/entity?key=yelp/a")
		var res WireResult
		if status != 200 || json.Unmarshal(body, &res) != nil {
			t.Fatalf("entity read: status %d, body %s", status, body)
		}
		return res, body
	}
	first, firstBody := entity()
	h0, _, _ := cache.Stats()
	_, again := entity()
	if h1, _, _ := cache.Stats(); h1 != h0+1 || !bytes.Equal(again, firstBody) {
		t.Fatalf("second DP read: hits %d -> %d, same bytes %v", h0, h1, bytes.Equal(again, firstBody))
	}

	var rows []WireResult
	getJSON(t, ts.URL+"/api/search?service=yelp&zip=z&category=cafe", &rows)
	for _, row := range rows {
		if row.Entity.Key == "yelp/a" && noised(t, row) != noised(t, first) {
			t.Fatalf("search row and entity body released different samples:\n%s\n%s", noised(t, row), noised(t, first))
		}
	}

	if resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Author: "r", Rating: 1, Text: "x"}, nil); resp.StatusCode != 201 {
		t.Fatalf("post review status %d", resp.StatusCode)
	}
	_, m0, _ := cache.Stats()
	reviewed, _ := entity()
	if _, m1, _ := cache.Stats(); m1 != m0+1 {
		t.Fatalf("read after a review: misses %d -> %d, want one more", m0, m1)
	}
	if reviewed.ReviewCount != first.ReviewCount+1 || noised(t, reviewed) != noised(t, first) {
		t.Fatalf("after a review: review count %d -> %d, noised fields\n%s\n%s",
			first.ReviewCount, reviewed.ReviewCount, noised(t, first), noised(t, reviewed))
	}

	rating := 2.0
	if err := srv.Store().Commit(&store.Record{Kind: store.KindUpload, AnonID: "anon-new", Entity: "yelp/a", Key: "k-new", Rating: &rating}); err != nil {
		t.Fatal(err)
	}
	_, m2, _ := cache.Stats()
	uploaded, _ := entity()
	if _, m3, _ := cache.Stats(); m3 != m2+1 {
		t.Fatalf("read after an upload: misses %d -> %d, want one more", m2, m3)
	}
	if noised(t, uploaded) == noised(t, reviewed) {
		t.Fatalf("an applied upload did not release a new sample: %s", noised(t, uploaded))
	}
}

// The released Score must follow from the released fields: the exact
// score is a function of the exact inferred count and mean, so copying
// it would leak them through one equation per review posted. Search
// pages rank by the released score.
func TestDPScoreFromReleasedFields(t *testing.T) {
	_, ts := dpServer(t, 1.0)
	check := func(w WireResult) {
		t.Helper()
		if want := search.Score(w.ReviewCount, w.ReviewMean, w.InferredCount, w.InferredMean); w.Score != want {
			t.Fatalf("%s: released score %v, formula over released fields %v", w.Entity.Key, w.Score, want)
		}
	}
	var rows []WireResult
	getJSON(t, ts.URL+"/api/search?service=yelp&zip=z&category=cafe", &rows)
	if len(rows) != 2 {
		t.Fatalf("search returned %d rows", len(rows))
	}
	for i, row := range rows {
		check(row)
		if i > 0 && row.Score > rows[i-1].Score {
			t.Fatalf("page not ranked by released score: %v after %v", row.Score, rows[i-1].Score)
		}
	}
	for _, key := range []string{"yelp/a", "yelp/b"} {
		var res WireResult
		getJSON(t, ts.URL+"/api/entity?key="+key, &res)
		check(res)
	}
}

// TestDPNoiseNotDerivableFromPublicKey: the noise is keyed by a secret
// derived from the token issuer's private key. Servers sharing one
// issuer (a leader and its follower) release identical bodies for
// identical state; a server with a fresh issuer — whose public key a
// client can fetch just the same — releases different ones; and one
// issuer's releases at two budgets do not share their uniforms, which
// would put their noise in ratio 2:1 and let a reader solve for the
// truth.
func TestDPNoiseNotDerivableFromPublicKey(t *testing.T) {
	issuer, err := blindsig.NewIssuer(512, 50, 24*time.Hour, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	release := func(ts *httptest.Server) []byte {
		t.Helper()
		_, body := getBody(t, ts.URL+"/api/entity?key=yelp/a")
		return body
	}
	_, ts1 := dpServerWith(t, 1, issuer)
	_, ts2 := dpServerWith(t, 1, issuer)
	_, fresh := dpServer(t, 1)
	shared := release(ts1)
	if other := release(ts2); !bytes.Equal(shared, other) {
		t.Fatalf("two servers sharing an issuer released different bodies:\n%s\n%s", shared, other)
	}
	if other := release(fresh); bytes.Equal(shared, other) {
		t.Fatalf("a fresh issuer released the same body: %s", other)
	}

	srv2, ts2eps := dpServerWith(t, 2, issuer)
	exact := math.Round(srv2.Engine().Describe(srv2.Engine().Entity("yelp/a")).Aggregate.EffectiveInteractions)
	offset := func(body []byte) float64 {
		t.Helper()
		var res WireResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res.EffectiveInteractions - exact
	}
	if o1, o2 := offset(shared), offset(release(ts2eps)); math.Abs(o1-2*o2) < 1e-9 {
		t.Fatalf("noise at ε=1 (%v) is twice the noise at ε=2 (%v): the budgets share uniforms", o1, o2)
	}
}

// RepeatFraction is a share of visitors, and its release is noised over
// the visitor population, not the inferred-opinion count: an entity
// with 40 visitors, every one of them back a second time, and no
// inferred opinion releases a fraction near 1, not a suppressed 0.
func TestDPRepeatFractionOverVisitors(t *testing.T) {
	catalog := []*world.Entity{{ID: "r", Service: world.Yelp, Zip: "z", Category: "cafe", Name: "R"}}
	srv, err := New(Config{Catalog: catalog, KeyBits: 512, Clock: simclock.NewSim(simclock.Epoch), PrivacyEpsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, hists := srv.Stores()
	for u := 0; u < 40; u++ {
		for v := 0; v < 2; v++ {
			_ = hists.Append(fmt.Sprintf("anon-%d", u), "yelp/r", interaction.Record{
				Entity: "yelp/r", Kind: interaction.VisitKind,
				Start:    simclock.Epoch.Add(time.Duration(u*100+v*1000) * time.Hour),
				Duration: time.Hour, DistanceFrom: 2000,
			})
		}
	}
	if exact := srv.Engine().Describe(srv.Engine().Entity("yelp/r")); exact.InferredCount != 0 ||
		exact.Aggregate.VisitsPerUser[2] != 40 || exact.Aggregate.RepeatFraction != 1 {
		t.Fatalf("fixture: %d opinions, visit bins %v, repeat fraction %v",
			exact.InferredCount, exact.Aggregate.VisitsPerUser, exact.Aggregate.RepeatFraction)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var res WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/r", &res)
	if res.RepeatFraction <= 0.5 {
		t.Fatalf("released repeat fraction %v for 40 visitors who all came back, want > 0.5", res.RepeatFraction)
	}
}
