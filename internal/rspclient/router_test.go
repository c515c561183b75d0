package rspclient

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/cluster"
	"opinions/internal/rspserver"
	"opinions/internal/simclock"
	"opinions/internal/stripe"
	"opinions/internal/world"
)

// TestTransportReprobesPreferredAfterCooldown: once the cooldown
// passes, a failed-over transport sends one probe back to the
// preferred target; a recovered preferred target regains the traffic,
// a still-dead one costs exactly one probe per cooldown.
func TestTransportReprobesPreferredAfterCooldown(t *testing.T) {
	var primaryHits, fallbackHits atomic.Int32
	primaryDown := atomic.Bool{}
	primaryDown.Store(true)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryHits.Add(1)
		if primaryDown.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"down"}`))
			return
		}
		w.Write([]byte("{}"))
	}))
	defer primary.Close()
	fallback := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fallbackHits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer fallback.Close()

	now := time.Unix(1000, 0)
	tr := &HTTPTransport{
		BaseURL: primary.URL, Fallbacks: []string{fallback.URL},
		Retry: fastRetry(4), ReprobeAfter: time.Minute,
		now: func() time.Time { return now },
	}

	// First call: primary 503s once, rotates, fallback serves.
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatal(err)
	}
	if p := primaryHits.Load(); p != 1 {
		t.Fatalf("primary hits = %d, want 1", p)
	}

	// Inside the cooldown the transport stays on the fallback.
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatal(err)
	}
	if p := primaryHits.Load(); p != 1 {
		t.Fatalf("primary probed inside the cooldown (%d hits)", p)
	}

	// Cooldown expires while the primary is still down: one probe, then
	// back to the fallback — and the cooldown restarts.
	now = now.Add(61 * time.Second)
	before := metricReprobes.Value()
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatal(err)
	}
	if p := primaryHits.Load(); p != 2 {
		t.Fatalf("primary hits after failed re-probe = %d, want 2", p)
	}
	if metricReprobes.Value() != before+1 {
		t.Fatalf("reprobe metric = %d, want +1", metricReprobes.Value()-before)
	}
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatal(err)
	}
	if p := primaryHits.Load(); p != 2 {
		t.Fatalf("primary probed again before the next cooldown (%d hits)", p)
	}

	// The primary recovers; the next post-cooldown probe wins it back
	// for good.
	primaryDown.Store(false)
	now = now.Add(61 * time.Second)
	fb := fallbackHits.Load()
	for i := 0; i < 3; i++ {
		if err := tr.getJSON("/api/meta", nil); err != nil {
			t.Fatal(err)
		}
	}
	if p := primaryHits.Load(); p != 5 {
		t.Fatalf("recovered primary served %d total hits, want 5 (probe + 2 sticky)", p)
	}
	if fallbackHits.Load() != fb {
		t.Fatal("fallback still serving after the preferred target recovered")
	}
}

func TestTransportReprobeDisabled(t *testing.T) {
	var primaryHits atomic.Int32
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryHits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"down"}`))
	}))
	defer primary.Close()
	fallback := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer fallback.Close()

	now := time.Unix(1000, 0)
	tr := &HTTPTransport{
		BaseURL: primary.URL, Fallbacks: []string{fallback.URL},
		Retry: fastRetry(4), ReprobeAfter: -1,
		now: func() time.Time { return now },
	}
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatal(err)
	}
	now = now.Add(24 * time.Hour)
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatal(err)
	}
	if p := primaryHits.Load(); p != 1 {
		t.Fatalf("primary hits = %d, want 1 (re-probe disabled)", p)
	}
}

// routerCluster stands up an n-partition cluster of real servers with
// the ownership gate and scatter-gather installed, sharing one issuer.
func routerCluster(t *testing.T, n int) (*Router, []*rspserver.Server, []*world.Entity) {
	t.Helper()
	clock := simclock.NewSim(simclock.Epoch)
	issuer, err := blindsig.NewIssuer(1024, 100000, 24*time.Hour, clock)
	if err != nil {
		t.Fatal(err)
	}
	catalog := make([]*world.Entity, 0, 24)
	for i := 0; i < 24; i++ {
		catalog = append(catalog, &world.Entity{
			ID: world.EntityID(fmt.Sprintf("r%02d", i)), Service: world.Yelp,
			Zip: "48104", Category: "cafe", Name: fmt.Sprintf("Cafe %02d", i),
			Quality: 1 + float64(i%5),
		})
	}

	handlers := make([]atomic.Pointer[http.Handler], n)
	parts := make([]cluster.Partition, n)
	for p := 0; p < n; p++ {
		p := p
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[p].Load()).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		parts[p] = cluster.Partition{Nodes: []string{ts.URL}}
	}
	ring, err := cluster.New(cluster.Config{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*rspserver.Server, n)
	for p := 0; p < n; p++ {
		srv, err := rspserver.New(rspserver.Config{
			Catalog: rspserver.FilterCatalog(ring, p, catalog),
			Clock:   clock, Issuer: issuer,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[p] = srv
		h := rspserver.Chain(srv.Handler(),
			rspserver.WithScatterGather(ring, p, rspserver.GatherOptions{Timeout: 500 * time.Millisecond}),
			rspserver.WithOwnershipGate(ring, p),
		)
		handlers[p].Store(&h)
	}
	return NewRouter(ring, RouterOptions{Retry: fastRetry(2)}), servers, catalog
}

func TestRouterRoutesWritesToOwners(t *testing.T) {
	router, servers, catalog := routerCluster(t, 3)
	for _, e := range catalog {
		if err := router.PostReview(e.Key(), "author-1", 4, "solid"); err != nil {
			t.Fatalf("PostReview(%s): %v", e.Key(), err)
		}
	}
	// Every review landed on its owner: per-node review counts must sum
	// to the catalog with no node holding a foreign entity's review.
	total := 0
	for p, srv := range servers {
		rev, _, _ := srv.Stores()
		n := rev.TotalReviews()
		total += n
		if n == 0 {
			t.Fatalf("partition %d holds no reviews; routing never reached it", p)
		}
	}
	if total != len(catalog) {
		t.Fatalf("cluster holds %d reviews, want %d", total, len(catalog))
	}
}

func TestRouterDirectoryIsClusterWide(t *testing.T) {
	router, _, catalog := routerCluster(t, 3)
	dir, err := router.FetchDirectory()
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != len(catalog) {
		t.Fatalf("directory has %d entities, want %d", len(dir), len(catalog))
	}
}

func TestRouterTokenKeyAndSignRouting(t *testing.T) {
	router, _, _ := routerCluster(t, 3)
	// The shared issuer means the key is identical wherever it is
	// fetched; SignToken routes by device hash (the full blind-sign +
	// redeem round trip across partitions runs in the cluster soak).
	key, err := router.FetchTokenKey()
	if err != nil {
		t.Fatal(err)
	}
	p0key, err := (&HTTPTransport{BaseURL: router.Ring().Nodes(0)[0]}).FetchTokenKey()
	if err != nil {
		t.Fatal(err)
	}
	p2key, err := (&HTTPTransport{BaseURL: router.Ring().Nodes(2)[0]}).FetchTokenKey()
	if err != nil {
		t.Fatal(err)
	}
	if key.N.Cmp(p0key.N) != 0 || key.N.Cmp(p2key.N) != 0 {
		t.Fatal("token keys differ across partitions; cluster must share one issuer")
	}
	if p := stripe.IndexN("dev-router", 3); p < 0 || p > 2 {
		t.Fatalf("device partition out of range: %d", p)
	}
}

func TestRouterRetriesMisrouteOnStaleRing(t *testing.T) {
	router, servers, catalog := routerCluster(t, 3)
	// A stale one-partition ring aims everything at partition 0; the
	// gate's 421 hint must redirect each call to its true owner.
	staleRing, err := cluster.New(cluster.Config{Partitions: []cluster.Partition{
		{Nodes: router.Ring().Nodes(0)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	stale := NewRouter(staleRing, RouterOptions{Retry: fastRetry(2)})
	before := metricMisrouteRetries.Value()
	for _, e := range catalog {
		if err := stale.PostReview(e.Key(), "author-2", 3, "ok"); err != nil {
			t.Fatalf("stale-ring PostReview(%s): %v", e.Key(), err)
		}
	}
	if metricMisrouteRetries.Value() == before {
		t.Fatal("no misroute retries counted despite a stale ring")
	}
	total := 0
	for _, srv := range servers {
		rev, _, _ := srv.Stores()
		total += rev.TotalReviews()
	}
	if total != len(catalog) {
		t.Fatalf("cluster holds %d reviews after stale-ring writes, want %d", total, len(catalog))
	}
}
