package rspserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"opinions/internal/attest"
	"opinions/internal/inference"
	"opinions/internal/interaction"
	"opinions/internal/simclock"
	"opinions/internal/stats"
	"opinions/internal/store"
	"opinions/internal/world"
)

// End to end: a second GET /api/entity is a cache hit serving the same
// bytes, and a committed review on that entity invalidates it so the
// next read sees the new review count.
func TestEntityCacheHitAndInvalidateOnReview(t *testing.T) {
	srv, ts := testServer(t)
	cache := srv.ReadCache()

	var first WireResult
	if resp := getJSON(t, ts.URL+"/api/entity?key=yelp/a", &first); resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	h0, _, _ := cache.Stats()
	var second WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &second)
	h1, _, _ := cache.Stats()
	if h1 != h0+1 {
		t.Fatalf("second read not a hit: hits %d -> %d", h0, h1)
	}
	if second.ReviewCount != first.ReviewCount {
		t.Fatalf("cached read disagrees: %d vs %d", second.ReviewCount, first.ReviewCount)
	}

	// Commit a review; the commit hook must evict the entity entry.
	resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Author: "bob", Rating: 4, Text: "good"}, nil)
	if resp.StatusCode != 201 {
		t.Fatalf("post review status %d", resp.StatusCode)
	}
	var after WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &after)
	if after.ReviewCount != first.ReviewCount+1 {
		t.Fatalf("read after commit served stale count %d (want %d)", after.ReviewCount, first.ReviewCount+1)
	}
	_, _, invals := cache.Stats()
	if invals == 0 {
		t.Fatal("no invalidation counted after commit")
	}
}

// Unknown entities are never cached: the key space is attacker-chosen.
func TestEntity404NotCached(t *testing.T) {
	srv, ts := testServer(t)
	for i := 0; i < 3; i++ {
		if resp := getJSON(t, ts.URL+"/api/entity?key=yelp/nope", nil); resp.StatusCode != 404 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if n := srv.ReadCache().Len(); n != 0 {
		t.Fatalf("404s minted %d cache entries", n)
	}
}

// Each known service kind's directory body is encoded once and served
// as the same bytes, outside the read cache; arbitrary ?service=
// strings answer [] and keep nothing.
func TestDirectoryCacheKnownKindsOnly(t *testing.T) {
	srv, ts := testServer(t)
	cache := srv.ReadCache()
	h0, m0, _ := cache.Stats()
	_, first := getBody(t, ts.URL+"/api/directory?service=yelp")
	if _, again := getBody(t, ts.URL+"/api/directory?service=yelp"); !bytes.Equal(again, first) {
		t.Fatalf("repeat directory read differs:\n%s\n%s", first, again)
	}
	if h1, m1, _ := cache.Stats(); h1 != h0 || m1 != m0 || cache.Len() != 0 {
		t.Fatalf("directory reads went through the read cache: hits %d -> %d, misses %d -> %d, %d entries", h0, h1, m0, m1, cache.Len())
	}
	kinds := len(srv.dirs)
	for i := 0; i < 5; i++ {
		if _, body := getBody(t, ts.URL+fmt.Sprintf("/api/directory?service=bogus-%d", i)); string(body) != "[]\n" {
			t.Fatalf("unknown service kind answered %q", body)
		}
	}
	if len(srv.dirs) != kinds {
		t.Fatalf("unknown service kinds grew the directory bodies: %d -> %d", kinds, len(srv.dirs))
	}
}

// Concurrent readers and review writers on one entity must never be
// served a response older than a completed commit (run under -race).
func TestCacheConcurrentReadWrite(t *testing.T) {
	_, ts := testServer(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				getJSON(t, ts.URL+"/api/entity?key=yelp/a", nil)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Author: "w", Rating: 3, Text: "x"}, nil)
		if resp.StatusCode != 201 {
			t.Fatalf("post %d status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	// After writers quiesce, the served count must reflect every commit.
	var final WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &final)
	if final.ReviewCount != 20 {
		t.Fatalf("final count %d, want 20", final.ReviewCount)
	}
}

// Every mutating route must cap its request body: an over-limit body
// answers 413, not an OOM or a silent hang.
func TestRequestBodyLimit413(t *testing.T) {
	// Attestation enabled so /api/attest/verify reaches its body read.
	catalog := []*world.Entity{{ID: "a", Service: world.Yelp, Zip: "48104", Category: "chinese", Name: "Golden Wok", Quality: 4}}
	clock := simclock.NewSim(simclock.Epoch)
	srv, err := New(Config{Catalog: catalog, Clock: clock, KeyBits: 1024, Attestation: attest.NewVerifier(clock)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Valid JSON past the 1 MiB bound, so the decoder must actually
	// consume through the limit rather than bail on a syntax error.
	big := append(append([]byte(`{"text":"`), bytes.Repeat([]byte("a"), 2<<20)...), `"}`...)
	for _, path := range []string{"/api/reviews", "/api/token", "/api/attest/verify", "/api/upload", "/api/train"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
	// A reasonable body still parses (400 for bad content, not 413).
	resp, _ := http.Post(ts.URL+"/api/reviews", "application/json", strings.NewReader(`{"entity":""}`))
	resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Error("small body refused as too large")
	}
}

// Malformed paging on GET /api/reviews is a 400, matching /api/search;
// a past-end page is a stable empty JSON array, never null.
func TestReviewsPagingContract(t *testing.T) {
	_, ts := testServer(t)
	postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Author: "a", Rating: 4, Text: "x"}, nil)

	for _, q := range []string{"offset=abc", "offset=-1", "limit=abc", "limit=-5"} {
		resp := getJSON(t, ts.URL+"/api/reviews?entity=yelp/a&"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/api/reviews?entity=yelp/a&offset=50&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(string(raw)); s != "[]" {
		t.Fatalf("past-end page body = %s, want []", s)
	}
}

// Restoring an earlier snapshot rolls state back; a response cached
// after the snapshot was taken must not outlive the rollback.
func TestRestoreSnapshotFlushesCache(t *testing.T) {
	srv, ts := testServer(t)
	var before WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &before)
	snap := srv.Store().Snapshot()

	resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{Entity: "yelp/a", Author: "bob", Rating: 4, Text: "good"}, nil)
	if resp.StatusCode != 201 {
		t.Fatalf("post review status %d", resp.StatusCode)
	}
	var committed WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &committed)
	if committed.ReviewCount != before.ReviewCount+1 {
		t.Fatalf("review count after commit = %d, want %d", committed.ReviewCount, before.ReviewCount+1)
	}
	if srv.ReadCache().Len() == 0 {
		t.Fatal("nothing cached before restore")
	}

	if err := srv.Store().Restore(snap); err != nil {
		t.Fatal(err)
	}
	var restored WireResult
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", &restored)
	if restored.ReviewCount != before.ReviewCount {
		t.Fatalf("read after restore served %d reviews, want the snapshot's %d", restored.ReviewCount, before.ReviewCount)
	}
}

// A snapshot restore replaces all state at once; every cached response
// must be flushed with it. The flush lives at the store layer: a
// replication follower seeds state via store.Restore directly, and a
// cached response surviving that jump would be served stale forever.
func TestStoreRestoreFlushesCache(t *testing.T) {
	srv, ts := testServer(t)
	getJSON(t, ts.URL+"/api/entity?key=yelp/a", nil)
	if srv.ReadCache().Len() == 0 {
		t.Fatal("nothing cached before restore")
	}
	if err := srv.Store().Restore(srv.Store().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := srv.ReadCache().Len(); n != 0 {
		t.Fatalf("%d cache entries survived store-level restore (follower snapshot path)", n)
	}
}

// getBody fetches url and returns its status and body bytes.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// Cache invalidation follows the record: a retrain changes no served
// read state, so cached entity responses survive it byte for byte; a
// sweep record invalidates only the entity whose histories it drops.
func TestRetrainKeepsCacheSweepInvalidatesItsEntity(t *testing.T) {
	srv, ts := testServer(t)
	cache := srv.ReadCache()
	st := srv.Store()
	for i, ent := range []string{"yelp/a", "yelp/a", "yelp/b"} {
		visit := interaction.Record{Entity: ent, Kind: interaction.VisitKind, Start: simclock.Epoch.Add(time.Duration(i) * time.Hour), Duration: time.Hour}
		if err := st.Commit(&store.Record{Kind: store.KindUpload, AnonID: fmt.Sprintf("anon-%d", i), Entity: ent, Visit: &visit}); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 40; i++ {
		x := make([]float64, inference.NumFeatures)
		for j := range x {
			x[j] = rng.Float64()
		}
		if err := srv.AddTrainingPair(x, 3, "chinese"); err != nil {
			t.Fatal(err)
		}
	}
	urlA, urlB := ts.URL+"/api/entity?key=yelp/a", ts.URL+"/api/entity?key=yelp/b"
	_, bodyA := getBody(t, urlA)
	_, bodyB := getBody(t, urlB)

	if _, err := srv.Retrain(); err != nil {
		t.Fatal(err)
	}
	h0, _, _ := cache.Stats()
	if _, body := getBody(t, urlA); !bytes.Equal(body, bodyA) {
		t.Fatalf("entity body changed across a retrain:\n%s\n%s", bodyA, body)
	}
	if h1, _, _ := cache.Stats(); h1 != h0+1 {
		t.Fatalf("read after retrain not a hit: hits %d -> %d", h0, h1)
	}

	if err := st.Commit(&store.Record{Kind: store.KindSweep, Entity: "yelp/a", Dropped: []string{"anon-0"}}); err != nil {
		t.Fatal(err)
	}
	var before, after WireResult
	if err := json.Unmarshal(bodyA, &before); err != nil {
		t.Fatal(err)
	}
	h0, m0, _ := cache.Stats()
	getJSON(t, urlA, &after)
	if _, m1, _ := cache.Stats(); m1 != m0+1 {
		t.Fatalf("read of the swept entity not a miss: misses %d -> %d", m0, m1)
	}
	if after.RawInteractions != before.RawInteractions-1 {
		t.Fatalf("swept entity shows %d interactions, want %d", after.RawInteractions, before.RawInteractions-1)
	}
	if _, body := getBody(t, urlB); !bytes.Equal(body, bodyB) {
		t.Fatalf("other entity's body changed across the sweep")
	}
	if h1, _, _ := cache.Stats(); h1 != h0+1 {
		t.Fatalf("read of the other entity after the sweep not a hit: hits %d -> %d", h0, h1)
	}
}
