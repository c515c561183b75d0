package rspclient

// The crash-recovery soak: the RSP process dies mid-WAL-append — its
// active segment ends in a torn, never-acknowledged record — and a
// successor recovers from the same directory. The device agent, which
// spooled everything the dying process refused, drains against the
// successor. The bar is the same as the network-chaos soak: zero lost
// AND zero duplicated uploads, end to end. Durable acknowledgements
// (fsync before 2xx) rule out loss; the replayed idempotency ledger
// rules out double-counting of uploads the dying process applied but
// whose responses never arrived intact.

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"opinions/internal/faultinject"
	"opinions/internal/obs"
	"opinions/internal/resilience"
	"opinions/internal/rspserver"
	"opinions/internal/simclock"
	"opinions/internal/stats"
	"opinions/internal/store"
)

func TestCrashMidWALAppendRecoversExactly(t *testing.T) {
	city, sim := testWorld(t)
	walDir := t.TempDir()

	newServer := func(st *store.Store) *rspserver.Server {
		srv, err := rspserver.New(rspserver.Config{
			Catalog:   city.Entities,
			Clock:     simclock.NewSim(simclock.Epoch),
			KeyBits:   1024,
			TokenRate: 100000, TokenPeriod: 24 * time.Hour,
			Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// Process #1: one of its per-stripe WAL segments tears halfway
	// through that file's 6th write and the store latches unavailable —
	// the moment of death. Auto-compaction is off so the crash lands in
	// a populated segment.
	crashOpen := func(path string) (store.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		return faultinject.NewCrashFile(f, 6), nil
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	st1, err := store.Open(store.Options{Dir: walDir, CompactEvery: -1, OpenFile: crashOpen, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := newServer(st1)
	// Applied-then-truncated responses force retries of uploads the
	// server already committed — the duplicates the replayed ledger
	// must absorb after the restart.
	inj := faultinject.New(faultinject.Config{Seed: 5, TruncateAppliedRate: 0.2})
	ts1 := httptest.NewServer(rspserver.Chain(srv1.Handler(),
		rspserver.WithRecovery(quiet), inj.Middleware))

	jitter := stats.NewRNG(9)
	retry := &resilience.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Jitter:      jitter.Float64,
		Sleep:       func(time.Duration) {},
	}
	spoolPath := filepath.Join(t.TempDir(), "spool.json")
	mkAgent := func(baseURL string) *Agent {
		// Same seed: the reborn agent derives the same Ru, so its
		// anonymous IDs line up with uploads spooled before the crash.
		return NewAgent(Config{
			DeviceID: "dev-crash", Author: "ucr", Seed: 41,
			MixMax: time.Hour, SpoolPath: spoolPath,
		}, &HTTPTransport{BaseURL: baseURL, Retry: retry})
	}
	agent := mkAgent(ts1.URL)
	if err := agent.Bootstrap(); err != nil {
		t.Fatal(err)
	}

	u := city.Users[1]
	totalDetected := 0
	crashDay := -1
	for d := 0; d < sim.Days(); d++ {
		for _, dl := range sim.SimulateDate(d) {
			if dl.User != u.ID {
				continue
			}
			res, err := agent.ProcessDay(dl)
			totalDetected += res.Detected
			if err != nil {
				t.Logf("day %d degraded: %v", d, err)
			}
		}
		night := sim.Start().AddDate(0, 0, d+1).Add(2 * time.Hour)
		if _, err := agent.FlushUploads(night); err != nil {
			t.Logf("nightly flush %d degraded: %v", d, err)
		}
		if st1.Failed() {
			crashDay = d
			break
		}
	}
	if crashDay < 0 {
		t.Fatal("crash fault never fired; lower the crash write ordinal")
	}
	if totalDetected == 0 {
		t.Fatal("nothing detected before the crash")
	}
	ackedPreCrash := st1.Seq() // in-memory may exceed disk; bounded below by recovery

	// Unclean kill: listener gone, process state abandoned — no Close,
	// no compaction, no final snapshot. The device also reboots and
	// suspends its mixing queue to the durable spool.
	ts1.Close()
	moved := agent.Suspend()
	t.Logf("crash at day %d: seq %d in memory, %d uploads suspended to spool",
		crashDay, ackedPreCrash, moved)

	// Process #2 recovers from the directory: snapshot (none here) plus
	// WAL replay, truncating the torn tail the crash left.
	st2, err := store.Open(store.Options{Dir: walDir, CompactEvery: -1, Logger: quiet})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	recovered := st2.Histories().Stats().Records
	if st2.Seq() > ackedPreCrash {
		t.Fatalf("recovered seq %d exceeds pre-crash seq %d", st2.Seq(), ackedPreCrash)
	}
	t.Logf("recovered %d records at seq %d", recovered, st2.Seq())

	srv2 := newServer(st2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	agent = mkAgent(ts2.URL)
	if err := agent.Bootstrap(); err != nil {
		t.Fatalf("re-bootstrap after restart: %v", err)
	}
	for d := crashDay + 1; d < sim.Days(); d++ {
		for _, dl := range sim.SimulateDate(d) {
			if dl.User != u.ID {
				continue
			}
			res, err := agent.ProcessDay(dl)
			totalDetected += res.Detected
			if err != nil {
				t.Fatalf("post-restart day %d: %v", d, err)
			}
		}
		night := sim.Start().AddDate(0, 0, d+1).Add(2 * time.Hour)
		if _, err := agent.FlushUploads(night); err != nil {
			t.Fatalf("post-restart flush %d: %v", d, err)
		}
	}
	drainAt := sim.Start().AddDate(0, 0, sim.Days()+1)
	for i := 0; agent.PendingUploads() > 0; i++ {
		if i >= 50 {
			t.Fatalf("spool not drained after %d extra flushes: %d pending (%d spooled)",
				i, agent.PendingUploads(), agent.SpooledUploads())
		}
		if _, err := agent.FlushUploads(drainAt); err != nil {
			t.Fatalf("drain flush: %v", err)
		}
		drainAt = drainAt.Add(time.Hour)
	}

	// Zero lost, zero duplicated: what the WAL replay reconstructed plus
	// what the agent redelivered is exactly what the device detected.
	if got := st2.Histories().Stats().Records; got != totalDetected {
		verb, n := "lost", totalDetected-got
		if got > totalDetected {
			verb, n = "duplicated", got-totalDetected
		}
		t.Fatalf("server has %d records, agent detected %d — %d uploads %s across the crash",
			got, totalDetected, n, verb)
	}
	if agent.SpooledUploads() != 0 {
		t.Fatalf("%d uploads stuck in the spool", agent.SpooledUploads())
	}

	// Fold the recovered log, then check the wire-visible metrics the
	// acceptance bar names: nonzero appends and compactions on /metrics.
	if err := st2.Compact(); err != nil {
		t.Fatalf("post-recovery compaction: %v", err)
	}
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
	// wal_appends_total is labeled by commit stripe; sum the series.
	appendRe := regexp.MustCompile(`(?m)^wal_appends_total\{stripe="[0-9]+"\} ([0-9]+)$`)
	var appends int
	for _, m := range appendRe.FindAllSubmatch(body, -1) {
		n, err := strconv.Atoi(string(m[1]))
		if err != nil {
			t.Fatal(err)
		}
		appends += n
	}
	if appends == 0 {
		t.Fatal("wal_appends_total is zero (or unexposed) after the soak")
	}
	compactRe := regexp.MustCompile(`(?m)^wal_compactions_total ([0-9]+)$`)
	m := compactRe.FindSubmatch(body)
	if m == nil {
		t.Fatal("/metrics does not expose wal_compactions_total")
	}
	if string(m[1]) == "0" {
		t.Fatal("wal_compactions_total is zero after the soak")
	}
}
