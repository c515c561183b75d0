package rspserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/cluster"
	"opinions/internal/simclock"
	"opinions/internal/world"
)

// testCluster is a 3-partition in-process cluster: each partition runs
// one server holding its slice of a shared catalog, wrapped in the
// ownership gate and scatter-gather middlewares.
type testCluster struct {
	ring    *cluster.Ring
	servers []*Server
	ts      []*httptest.Server
	catalog []*world.Entity
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	catalog := make([]*world.Entity, 0, 30)
	for i := 0; i < 30; i++ {
		catalog = append(catalog, &world.Entity{
			ID: world.EntityID(fmt.Sprintf("e%02d", i)), Service: world.Yelp,
			Zip: "48104", Category: "chinese", Name: fmt.Sprintf("Place %02d", i),
			Quality: 1 + float64(i%5),
		})
	}

	// The ring needs node URLs before the handlers exist, so each test
	// server delegates through a late-bound slot.
	handlers := make([]atomic.Pointer[http.Handler], n)
	tc := &testCluster{catalog: catalog}
	nodes := make([]cluster.Partition, n)
	for p := 0; p < n; p++ {
		p := p
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[p].Load()).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		tc.ts = append(tc.ts, ts)
		nodes[p] = cluster.Partition{Nodes: []string{ts.URL}}
	}
	ring, err := cluster.New(cluster.Config{Partitions: nodes})
	if err != nil {
		t.Fatal(err)
	}
	tc.ring = ring

	for p := 0; p < n; p++ {
		srv, err := New(Config{
			Catalog: FilterCatalog(ring, p, catalog),
			Clock:   simclock.NewSim(simclock.Epoch),
			KeyBits: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, srv)
		h := Chain(srv.Handler(),
			WithScatterGather(ring, p, GatherOptions{Timeout: 500 * time.Millisecond}),
			WithOwnershipGate(ring, p),
		)
		handlers[p].Store(&h)
	}
	return tc
}

// keyOwnedBy returns a catalog key owned by partition p.
func (tc *testCluster) keyOwnedBy(t *testing.T, p int) string {
	t.Helper()
	for _, e := range tc.catalog {
		if tc.ring.Owns(p, e.Key()) {
			return e.Key()
		}
	}
	t.Fatalf("no catalog key maps to partition %d", p)
	return ""
}

func TestOwnershipGate(t *testing.T) {
	tc := newTestCluster(t, 3)
	foreign := tc.keyOwnedBy(t, 1)
	owner := tc.ring.Preferred(1)

	// A read for a foreign key is refused with the owner's address.
	resp := getJSON(t, tc.ts[0].URL+"/api/entity?key="+foreign, nil)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign GET /api/entity = %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(PartitionNodeHeader); got != owner {
		t.Fatalf("%s = %q, want %q", PartitionNodeHeader, got, owner)
	}

	// The same read on the owner succeeds.
	if resp := getJSON(t, tc.ts[1].URL+"/api/entity?key="+foreign, nil); resp.StatusCode != 200 {
		t.Fatalf("GET /api/entity on owner = %d, want 200", resp.StatusCode)
	}

	// A keyed write is gated by its JSON body.
	resp = postJSON(t, tc.ts[0].URL+"/api/reviews", map[string]any{"entity": foreign}, nil)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign POST /api/reviews = %d, want 421", resp.StatusCode)
	}

	// GET /api/reviews routes by the entity query parameter.
	resp = getJSON(t, tc.ts[0].URL+"/api/reviews?entity="+foreign, nil)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign GET /api/reviews = %d, want 421", resp.StatusCode)
	}

	// Unkeyed routes pass regardless.
	if resp := getJSON(t, tc.ts[0].URL+"/api/meta", nil); resp.StatusCode != 200 {
		t.Fatalf("GET /api/meta = %d, want 200", resp.StatusCode)
	}
}

func TestPeekEntityRestoresBody(t *testing.T) {
	body := `{"entity":"yelp/e01","rating":5}`
	r := httptest.NewRequest(http.MethodPost, "/api/reviews", strings.NewReader(body))
	if got := peekEntity(r); got != "yelp/e01" {
		t.Fatalf("peekEntity = %q, want %q", got, "yelp/e01")
	}
	rest, err := io.ReadAll(r.Body)
	if err != nil || string(rest) != body {
		t.Fatalf("body after peek = %q, %v; want original", rest, err)
	}

	// Malformed bodies yield no key and are still restored verbatim.
	r = httptest.NewRequest(http.MethodPost, "/api/reviews", strings.NewReader("{broken"))
	if got := peekEntity(r); got != "" {
		t.Fatalf("peekEntity(malformed) = %q, want empty", got)
	}
	rest, _ = io.ReadAll(r.Body)
	if string(rest) != "{broken" {
		t.Fatalf("malformed body after peek = %q", rest)
	}
}

func TestScatterGatherDirectory(t *testing.T) {
	tc := newTestCluster(t, 3)
	for p := range tc.ts {
		var dir []WireEntity
		resp := getJSON(t, tc.ts[p].URL+"/api/directory", &dir)
		if resp.StatusCode != 200 {
			t.Fatalf("coordinator %d: GET /api/directory = %d", p, resp.StatusCode)
		}
		if len(dir) != len(tc.catalog) {
			t.Fatalf("coordinator %d: directory has %d entities, want %d", p, len(dir), len(tc.catalog))
		}
		for i := 1; i < len(dir); i++ {
			if dir[i-1].Key >= dir[i].Key {
				t.Fatalf("coordinator %d: directory not sorted at %d: %q >= %q", p, i, dir[i-1].Key, dir[i].Key)
			}
		}
		if got := resp.Header.Get(FanoutHeader); got != "3" {
			t.Fatalf("coordinator %d: %s = %q, want 3", p, FanoutHeader, got)
		}
		if got := resp.Header.Get(PartialHeader); got != "" {
			t.Fatalf("coordinator %d: unexpected partial %q", p, got)
		}
	}
}

func TestScatterGatherSearch(t *testing.T) {
	tc := newTestCluster(t, 3)
	var results []WireResult
	resp := getJSON(t, tc.ts[0].URL+"/api/search?service=yelp&zip=48104&category=chinese", &results)
	if resp.StatusCode != 200 {
		t.Fatalf("GET /api/search = %d", resp.StatusCode)
	}
	if len(results) != len(tc.catalog) {
		t.Fatalf("gathered search has %d results, want %d", len(results), len(tc.catalog))
	}
	for i := 1; i < len(results); i++ {
		a, b := results[i-1], results[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Entity.Key >= b.Entity.Key) {
			t.Fatalf("merge order broken at %d: (%v,%q) before (%v,%q)",
				i, a.Score, a.Entity.Key, b.Score, b.Entity.Key)
		}
	}

	// The limit applies to the merged ranking, not per partition.
	results = nil
	if resp := getJSON(t, tc.ts[2].URL+"/api/search?service=yelp&zip=48104&category=chinese&limit=5", &results); resp.StatusCode != 200 {
		t.Fatalf("limited search = %d", resp.StatusCode)
	}
	if len(results) != 5 {
		t.Fatalf("limited search has %d results, want 5", len(results))
	}
}

func TestScatterGatherLocalLegStaysLocal(t *testing.T) {
	tc := newTestCluster(t, 3)
	req, _ := http.NewRequest(http.MethodGet, tc.ts[0].URL+"/api/directory", nil)
	req.Header.Set(ClusterLocalHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dir []WireEntity
	if err := json.NewDecoder(resp.Body).Decode(&dir); err != nil {
		t.Fatal(err)
	}
	want := len(FilterCatalog(tc.ring, 0, tc.catalog))
	if len(dir) != want {
		t.Fatalf("local leg returned %d entities, want the local slice of %d", len(dir), want)
	}
	if got := resp.Header.Get(FanoutHeader); got != "" {
		t.Fatalf("local leg carries fanout header %q", got)
	}
}

// TestScatterGatherCache: a coordinator keeps complete directory merges
// and nothing else — not an unknown filter's empty merge, not a partial
// merge, not a search.
func TestScatterGatherCache(t *testing.T) {
	tc := newTestCluster(t, 3)
	get := func(uri string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(tc.ts[0].URL + uri)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// A repeated directory request is served from the kept merge, byte
	// for byte.
	_, fresh := get("/api/directory")
	hits := metricClusterGatherCacheHits.Value()
	resp, kept := get("/api/directory")
	if got := metricClusterGatherCacheHits.Value(); got != hits+1 {
		t.Fatalf("repeated directory: cache hits %d -> %d, want one more", hits, got)
	}
	if !bytes.Equal(kept, fresh) {
		t.Fatalf("kept directory differs from the gathered one:\n%s\n%s", kept, fresh)
	}
	if got := resp.Header.Get(FanoutHeader); got != "3" {
		t.Fatalf("kept directory: %s = %q, want 3", FanoutHeader, got)
	}

	// An unknown filter merges to [] and is never kept.
	hits = metricClusterGatherCacheHits.Value()
	for i := 0; i < 2; i++ {
		if _, body := get("/api/directory?service=nope"); strings.TrimSpace(string(body)) != "[]" {
			t.Fatalf("unknown filter, request %d: body %s, want []", i, body)
		}
	}
	if got := metricClusterGatherCacheHits.Value(); got != hits {
		t.Fatalf("unknown filter served from the coordinator: cache hits %d -> %d", hits, got)
	}

	// With a partition down, the kept unfiltered directory still answers
	// complete; a filter never gathered, and every search, goes partial
	// on every request.
	tc.ts[2].Close()
	resp, body := get("/api/directory")
	if got := resp.Header.Get(PartialHeader); got != "" || !bytes.Equal(body, fresh) {
		t.Fatalf("kept directory after kill: %s = %q, body unchanged %v", PartialHeader, got, bytes.Equal(body, fresh))
	}
	for i := 0; i < 2; i++ {
		for _, uri := range []string{"/api/directory?service=yelp", "/api/search?service=yelp&zip=48104&category=chinese"} {
			if resp, _ := get(uri); resp.Header.Get(PartialHeader) != "2" {
				t.Fatalf("request %d for %s after kill: %s = %q, want 2", i, uri, PartialHeader, resp.Header.Get(PartialHeader))
			}
		}
	}
}

// TestScatterGatherSearchSeesCommit: a gathered search reflects a commit
// on the entity's owner at once, as a single node's search does.
func TestScatterGatherSearchSeesCommit(t *testing.T) {
	tc := newTestCluster(t, 3)
	key := tc.keyOwnedBy(t, 1)
	uri := tc.ts[0].URL + "/api/search?service=yelp&zip=48104&category=chinese"
	reviewCount := func() int {
		t.Helper()
		var results []WireResult
		if resp := getJSON(t, uri, &results); resp.StatusCode != 200 {
			t.Fatalf("GET /api/search = %d", resp.StatusCode)
		}
		for _, res := range results {
			if res.Entity.Key == key {
				return res.ReviewCount
			}
		}
		t.Fatalf("%s missing from the gathered search", key)
		return 0
	}

	before := reviewCount()
	review := PostReviewRequest{Entity: key, Author: "alice", Rating: 5, Text: "fresh"}
	if resp := postJSON(t, tc.ts[1].URL+"/api/reviews", review, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/reviews on the owner = %d", resp.StatusCode)
	}
	if got := reviewCount(); got != before+1 {
		t.Fatalf("review_count after a commit = %d, want %d", got, before+1)
	}
}

func TestScatterGatherPartial(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.ts[2].Close() // unclean: partition 2 is now unreachable

	var dir []WireEntity
	resp := getJSON(t, tc.ts[0].URL+"/api/directory", &dir)
	if resp.StatusCode != 200 {
		t.Fatalf("partial GET /api/directory = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(PartialHeader); got != "2" {
		t.Fatalf("%s = %q, want %q", PartialHeader, got, "2")
	}
	want := len(FilterCatalog(tc.ring, 0, tc.catalog)) + len(FilterCatalog(tc.ring, 1, tc.catalog))
	if len(dir) != want {
		t.Fatalf("partial directory has %d entities, want %d", len(dir), want)
	}

	// With every partition down the coordinator still answers from its
	// own slice — the worst case is partial, not unavailable.
	tc.ts[1].Close()
	dir = nil
	resp = getJSON(t, tc.ts[0].URL+"/api/directory", &dir)
	if resp.StatusCode != 200 {
		t.Fatalf("GET /api/directory with two partitions down = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(PartialHeader); got != "1,2" && got != "2,1" {
		t.Fatalf("%s = %q, want partitions 1 and 2", PartialHeader, got)
	}
	if want := len(FilterCatalog(tc.ring, 0, tc.catalog)); len(dir) != want {
		t.Fatalf("local-only directory has %d entities, want %d", len(dir), want)
	}
}
