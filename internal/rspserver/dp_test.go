package rspserver

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/interaction"
	"opinions/internal/simclock"
	"opinions/internal/world"
)

// dpServer builds a server with DP releases enabled and a populated
// inference layer.
func dpServer(t *testing.T, epsilon float64) (*Server, *httptest.Server) {
	t.Helper()
	catalog := []*world.Entity{
		{ID: "a", Service: world.Yelp, Zip: "z", Category: "cafe", Name: "A"},
		{ID: "b", Service: world.Yelp, Zip: "z", Category: "cafe", Name: "B"},
	}
	srv, err := New(Config{
		Catalog: catalog, KeyBits: 512, Clock: simclock.NewSim(simclock.Epoch),
		PrivacyEpsilon: epsilon, PrivacySeed: 42,
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

func TestDPNoisesAcrossQueries(t *testing.T) {
	_, ts := dpServer(t, 1.0)
	distinct := map[int]bool{}
	for i := 0; i < 20; i++ {
		var res WireResult
		getJSON(t, ts.URL+"/api/entity?key=yelp/a", &res)
		distinct[res.InferredCount] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("released counts took only %d values across 20 queries", len(distinct))
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

// TestDPNoiseNotDerivableFromPublicKey: with no PrivacySeed the noise
// stream must not follow from anything a client can fetch. Two servers
// sharing one token issuer — and so one public key — release different
// noisy counts for identical data.
func TestDPNoiseNotDerivableFromPublicKey(t *testing.T) {
	issuer, err := blindsig.NewIssuer(512, 50, 24*time.Hour, simclock.NewSim(simclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	catalog := []*world.Entity{{ID: "a", Service: world.Yelp, Zip: "z", Category: "cafe", Name: "A"}}
	releases := func() []int {
		srv, err := New(Config{Catalog: catalog, Issuer: issuer, Clock: simclock.NewSim(simclock.Epoch), PrivacyEpsilon: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, ops, _ := srv.Stores()
		for i := 0; i < 12; i++ {
			ops.Add("yelp/a", 4.0)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		counts := make([]int, 50)
		for i := range counts {
			var res WireResult
			getJSON(t, ts.URL+"/api/entity?key=yelp/a", &res)
			counts[i] = res.InferredCount
		}
		return counts
	}
	if a, b := releases(), releases(); slices.Equal(a, b) {
		t.Fatalf("two servers with one public key released the same noisy counts: %v", a)
	}
}
