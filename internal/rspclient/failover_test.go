package rspclient

// The kill-the-leader soak: a leader/follower pair runs under
// connection chaos while a device agent uploads its days; mid-soak the
// leader dies uncleanly — client connections severed, replication
// stream cut, no shutdown — and the follower auto-promotes. The agent's
// transport retargets onto the promoted follower and drains its spool.
// The bar generalizes TestCrashMidWALAppendRecoversExactly across two
// nodes: zero lost AND zero duplicated uploads, proven against the
// FOLLOWER's state — records the dead leader acknowledged must already
// be there (the semi-sync barrier), records it refused must arrive via
// the spool (idempotency keys absorb the retries of both chaos layers).

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/faultinject"
	"opinions/internal/obs"
	"opinions/internal/replication"
	"opinions/internal/resilience"
	"opinions/internal/rspserver"
	"opinions/internal/simclock"
	"opinions/internal/store"
)

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestTransportFailsOverOnConnectionRefused(t *testing.T) {
	var hits atomic.Int32
	fallback := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer fallback.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // port now refuses connections

	before := metricFailovers.Value()
	tr := &HTTPTransport{BaseURL: dead.URL, Fallbacks: []string{fallback.URL}, Retry: fastRetry(4)}
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatalf("call with live fallback failed: %v", err)
	}
	if metricFailovers.Value() != before+1 {
		t.Fatalf("failovers = %d, want exactly one rotation", metricFailovers.Value()-before)
	}
	// Sticky: the next call must go straight to the fallback, not probe
	// the dead primary again.
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("fallback served %d requests, want 2", got)
	}
	if metricFailovers.Value() != before+1 {
		t.Fatal("second call rotated targets again despite a healthy sticky target")
	}
}

func TestTransportFailsOverOn503(t *testing.T) {
	var primaryHits, fallbackHits atomic.Int32
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primaryHits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"read-only replication follower"}`))
	}))
	defer primary.Close()
	fallback := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fallbackHits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer fallback.Close()

	tr := &HTTPTransport{BaseURL: primary.URL, Fallbacks: []string{fallback.URL}, Retry: fastRetry(4)}
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatalf("call failed despite healthy fallback: %v", err)
	}
	if p, f := primaryHits.Load(), fallbackHits.Load(); p != 1 || f != 1 {
		t.Fatalf("primary/fallback hits = %d/%d, want 1/1 (one 503, one success)", p, f)
	}
	if err := tr.getJSON("/api/meta", nil); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if p := primaryHits.Load(); p != 1 {
		t.Fatalf("primary probed again (%d hits) despite sticky failover", p)
	}
}

// TestTransportWithoutFallbacksUnchanged pins the single-node behaviour:
// no rotation, errors surface as before.
func TestTransportWithoutFallbacksUnchanged(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	before := metricFailovers.Value()
	tr := &HTTPTransport{BaseURL: dead.URL, Retry: fastRetry(4)}
	if err := tr.getJSON("/api/meta", nil); err == nil {
		t.Fatal("call against a dead server with no fallback succeeded")
	}
	if metricFailovers.Value() != before {
		t.Fatal("failover metric moved with no fallbacks configured")
	}
}

func TestKillTheLeaderFailoverSoak(t *testing.T) {
	city, sim := testWorld(t)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	clock := simclock.NewSim(simclock.Epoch)

	// One issuer for both nodes: tokens fetched from the leader stay
	// redeemable on the promoted follower.
	issuer, err := blindsig.NewIssuer(1024, 100000, 24*time.Hour, clock)
	if err != nil {
		t.Fatal(err)
	}
	newNode := func(st *store.Store) *rspserver.Server {
		srv, err := rspserver.New(rspserver.Config{
			Catalog: city.Entities, Clock: clock, Issuer: issuer, Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	leaderSt, err := store.Open(store.Options{Dir: t.TempDir(), CompactEvery: -1, NoSync: true, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	followerSt, err := store.Open(store.Options{Dir: t.TempDir(), CompactEvery: -1, NoSync: true, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer followerSt.Close()

	// Leader: semi-sync replication plus the applied-then-truncated HTTP
	// injector, so some uploads are committed but never acknowledged —
	// the duplicates the follower's replicated ledger must absorb.
	leader := replication.NewLeader(leaderSt, replication.LeaderOptions{
		AckTimeout: 2 * time.Second, HeartbeatEvery: 20 * time.Millisecond, Logger: quiet,
	})
	repLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go leader.Serve(repLn)

	srvL := newNode(leaderSt)
	inj := faultinject.New(faultinject.Config{Seed: 5, TruncateAppliedRate: 0.15})
	ts1 := httptest.NewServer(rspserver.Chain(srvL.Handler(), rspserver.WithRecovery(quiet), inj.Middleware))

	// Follower: the replication link runs under front-loaded connection
	// chaos — the first sessions get a flaky conn that drops mid-stream,
	// later redials are clean, so the pre-kill window can quiesce.
	var dials atomic.Int32
	chaosDial := func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		if n := dials.Add(1); n <= 3 {
			return faultinject.NewFlakyConn(c, faultinject.FlakyConnConfig{
				Seed: int64(n) * 17, ReadDropRate: 0.05, SkipOps: 8, MaxFaults: 1,
			}), nil
		}
		return c, nil
	}
	promoted := make(chan string, 1)
	fol := replication.StartFollower(followerSt, repLn.Addr().String(), replication.FollowerOptions{
		Dial:          chaosDial,
		Retry:         resilience.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Breaker:       &resilience.Breaker{FailureThreshold: 1000, Cooldown: 10 * time.Millisecond},
		FailoverAfter: 400 * time.Millisecond,
		ReadTimeout:   100 * time.Millisecond,
		OnPromote:     func(reason string) { promoted <- reason },
		Logger:        quiet,
	})
	defer fol.Close()

	srvF := newNode(followerSt)
	ts2 := httptest.NewServer(rspserver.Chain(srvF.Handler(),
		rspserver.WithFollowerGate(func() bool { return !fol.Promoted() }, ts1.URL)))
	defer ts2.Close()

	// The device: primary aimed at the leader, the follower as fallback.
	spoolPath := filepath.Join(t.TempDir(), "spool.json")
	agent := NewAgent(Config{
		DeviceID: "dev-failover", Author: "ufo", Seed: 43,
		MixMax: time.Hour, SpoolPath: spoolPath,
	}, &HTTPTransport{BaseURL: ts1.URL, Fallbacks: []string{ts2.URL}, Retry: fastRetry(4)})
	if err := agent.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	u := city.Users[1]
	totalDetected := 0
	runDay := func(d int, required bool) {
		for _, dl := range sim.SimulateDate(d) {
			if dl.User != u.ID {
				continue
			}
			res, err := agent.ProcessDay(dl)
			totalDetected += res.Detected
			if err != nil && required {
				t.Fatalf("day %d: %v", d, err)
			}
		}
		night := sim.Start().AddDate(0, 0, d+1).Add(2 * time.Hour)
		if _, err := agent.FlushUploads(night); err != nil {
			if required {
				t.Fatalf("flush %d: %v", d, err)
			}
			t.Logf("flush %d degraded: %v", d, err)
		}
	}

	killDay := sim.Days() / 2
	for d := 0; d < killDay; d++ {
		runDay(d, false)
	}

	// Quiesce: the follower must be attached and fully caught up before
	// the kill — everything the leader acknowledged, the follower holds.
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool {
		return leader.Attached() > 0 && fol.Connected() && leader.FollowerAck() >= leaderSt.Seq()
	})
	preKillSeq := leaderSt.Seq()
	if preKillSeq == 0 || totalDetected == 0 {
		t.Fatal("nothing uploaded before the kill; soak proves nothing")
	}

	// Kill the leader uncleanly: sever every client connection, stop the
	// HTTP listener, cut the replication stream. The store is abandoned
	// mid-flight — never compacted, never closed.
	ts1.CloseClientConnections()
	ts1.Close()
	leader.Close()
	repLn.Close()

	select {
	case reason := <-promoted:
		t.Logf("follower promoted (%s) at leader seq %d", reason, preKillSeq)
	case <-time.After(10 * time.Second):
		t.Fatal("follower never auto-promoted after leader loss")
	}
	if followerSt.Seq() < preKillSeq {
		t.Fatalf("follower promoted at seq %d, behind the leader's acknowledged %d", followerSt.Seq(), preKillSeq)
	}

	// Life goes on against the promoted follower; the transport finds it
	// through the fallback ring.
	for d := killDay; d < sim.Days(); d++ {
		runDay(d, false)
	}
	drainAt := sim.Start().AddDate(0, 0, sim.Days()+1)
	for i := 0; agent.PendingUploads() > 0; i++ {
		if i >= 50 {
			t.Fatalf("spool not drained after %d extra flushes: %d pending (%d spooled)",
				i, agent.PendingUploads(), agent.SpooledUploads())
		}
		if _, err := agent.FlushUploads(drainAt); err != nil {
			t.Logf("drain flush %d: %v", i, err)
		}
		drainAt = drainAt.Add(time.Hour)
	}

	// Zero lost, zero duplicated — judged against the surviving node.
	if got := followerSt.Histories().Stats().Records; got != totalDetected {
		verb, n := "lost", totalDetected-got
		if got > totalDetected {
			verb, n = "duplicated", got-totalDetected
		}
		t.Fatalf("follower has %d records, device detected %d — %d uploads %s across the failover",
			got, totalDetected, n, verb)
	}
	if agent.SpooledUploads() != 0 {
		t.Fatalf("%d uploads stuck in the spool", agent.SpooledUploads())
	}

	// The acceptance bar's wire-visible metrics: frames streamed, the
	// follower-lag gauge exported, and the promotion counted.
	ms := httptest.NewServer(obs.Default.Handler())
	defer ms.Close()
	resp, err := http.Get(ms.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	mustMetric := func(name string, wantNonzero bool) {
		re := regexp.MustCompile(`(?m)^` + name + ` ([0-9]+)$`)
		m := re.FindSubmatch(body)
		if m == nil {
			t.Fatalf("/metrics does not expose %s", name)
		}
		if v, _ := strconv.Atoi(string(m[1])); wantNonzero && v == 0 {
			t.Fatalf("%s = 0, want nonzero", name)
		}
	}
	mustMetric("replication_frames_total", true)
	mustMetric("replication_applied_total", true)
	mustMetric("replication_promotions_total", true)
	mustMetric("replication_follower_lag_records", false) // gauge must exist; 0 is the healthy value
	_ = fmt.Sprintf                                       // keep fmt imported if assertions above change
}
