package replication

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"reflect"
	"testing"
	"time"

	"opinions/internal/history"
	"opinions/internal/interaction"
	"opinions/internal/resilience"
	"opinions/internal/simclock"
	"opinions/internal/store"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(store.Options{
		Dir: t.TempDir(), NoSync: true, CompactEvery: -1,
		Clock: simclock.NewSim(simclock.Epoch), Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func commitUpload(t *testing.T, s *store.Store, i int) {
	t.Helper()
	rating := 4.0
	rec := &store.Record{
		Kind:   store.KindUpload,
		AnonID: fmt.Sprintf("anon-%d", i),
		Entity: fmt.Sprintf("ent/%d", i%3),
		Visit: &interaction.Record{
			Entity: fmt.Sprintf("ent/%d", i%3), Kind: interaction.VisitKind,
			Start: simclock.Epoch, Duration: 30 * time.Minute,
		},
		Rating: &rating,
		Key:    fmt.Sprintf("key-%d", i),
	}
	if err := s.Commit(rec); err != nil {
		t.Fatalf("commit %d: %v", i, err)
	}
}

func startLeader(t *testing.T, st *store.Store, opts LeaderOptions) (*Leader, string) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	if opts.HeartbeatEvery == 0 {
		opts.HeartbeatEvery = 20 * time.Millisecond
	}
	l := NewLeader(st, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go l.Serve(ln)
	t.Cleanup(func() { l.Close() })
	return l, ln.Addr().String()
}

func fastFollowerOpts() FollowerOptions {
	return FollowerOptions{
		Retry:         resilience.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Breaker:       &resilience.Breaker{FailureThreshold: 1000, Cooldown: 10 * time.Millisecond},
		ReadTimeout:   500 * time.Millisecond,
		Logger:        quietLogger(),
		FailoverAfter: 0,
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLiveStreamReplicates(t *testing.T) {
	leaderStore, followerStore := openStore(t), openStore(t)
	leader, addr := startLeader(t, leaderStore, LeaderOptions{})
	f := StartFollower(followerStore, addr, fastFollowerOpts())
	defer f.Close()
	waitFor(t, 5*time.Second, "follower connected", f.Connected)
	for i := 0; i < 10; i++ {
		commitUpload(t, leaderStore, i)
	}
	waitFor(t, 5*time.Second, "follower caught up", func() bool { return followerStore.Seq() == 10 })
	waitFor(t, 5*time.Second, "leader saw acks", func() bool { return leader.FollowerAck() == 10 })
	if got, want := followerStore.Histories().Stats().Records, leaderStore.Histories().Stats().Records; got != want {
		t.Fatalf("follower records %d, leader %d", got, want)
	}
	if !followerStore.Ledger().Contains("key-3") {
		t.Fatal("dedup ledger did not ride the stream")
	}
	if f.Lag() != 0 || !f.CaughtUp() {
		t.Fatalf("lag %d, caught-up %v; want 0,true", f.Lag(), f.CaughtUp())
	}
}

func TestCatchUpFromDiskThenLive(t *testing.T) {
	leaderStore, followerStore := openStore(t), openStore(t)
	for i := 0; i < 5; i++ {
		commitUpload(t, leaderStore, i)
	}
	_, addr := startLeader(t, leaderStore, LeaderOptions{})
	f := StartFollower(followerStore, addr, fastFollowerOpts())
	defer f.Close()
	waitFor(t, 5*time.Second, "disk catch-up", func() bool { return followerStore.Seq() == 5 })
	for i := 5; i < 9; i++ {
		commitUpload(t, leaderStore, i)
	}
	waitFor(t, 5*time.Second, "live tail after catch-up", func() bool { return followerStore.Seq() == 9 })
	if got := followerStore.Histories().Stats().Records; got != 9 {
		t.Fatalf("follower records = %d, want 9", got)
	}
}

func TestSnapshotSeedWhenBehindCompactionBase(t *testing.T) {
	leaderStore, followerStore := openStore(t), openStore(t)
	for i := 0; i < 5; i++ {
		commitUpload(t, leaderStore, i)
	}
	if err := leaderStore.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i := 5; i < 7; i++ {
		commitUpload(t, leaderStore, i)
	}
	before := metricSnapshotsLoaded.Value()
	_, addr := startLeader(t, leaderStore, LeaderOptions{})
	f := StartFollower(followerStore, addr, fastFollowerOpts())
	defer f.Close()
	// Wait on the metric, not just the sequence: Restore makes the new
	// sequences visible before it finishes its disk work, so the counter
	// (bumped after Restore returns) is the real "seeded" signal.
	waitFor(t, 5*time.Second, "snapshot seed + frames", func() bool {
		return followerStore.Seq() == 7 && metricSnapshotsLoaded.Value() > before
	})
	if got := followerStore.Histories().Stats().Records; got != 7 {
		t.Fatalf("follower records = %d, want 7", got)
	}
}

func TestSyncBarrierRefusesWithoutAck(t *testing.T) {
	leaderStore := openStore(t)
	leader, addr := startLeader(t, leaderStore, LeaderOptions{
		SyncCommit: true, AckTimeout: 100 * time.Millisecond,
	})

	// No follower attached: semi-sync degrades to async and commits pass.
	commitUpload(t, leaderStore, 0)

	// A follower that handshakes but never acks: commits must be refused
	// with ErrReplicationLag after the timeout, without latching.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := writeHandshake(conn, leaderStore.SeqVector()); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	waitFor(t, 5*time.Second, "silent follower attached", func() bool { return leader.Attached() == 1 })
	rating := 4.0
	rec := &store.Record{Kind: store.KindUpload, AnonID: "anon-x", Entity: "ent/x",
		Visit:  &interaction.Record{Entity: "ent/x", Kind: interaction.VisitKind, Start: simclock.Epoch, Duration: time.Minute},
		Rating: &rating, Key: "lagged-key"}
	err = leaderStore.Commit(rec)
	if !errors.Is(err, store.ErrReplicationLag) {
		t.Fatalf("commit with silent follower = %v, want ErrReplicationLag", err)
	}
	if leaderStore.Failed() {
		t.Fatal("barrier timeout latched the store")
	}

	// Drop the silent follower: degraded commits flow again.
	conn.Close()
	waitFor(t, 5*time.Second, "silent follower detached", func() bool { return leader.Attached() == 0 })
	commitUpload(t, leaderStore, 99)
}

func TestAutoPromotionOnLeaderLoss(t *testing.T) {
	leaderStore, followerStore := openStore(t), openStore(t)
	leader, addr := startLeader(t, leaderStore, LeaderOptions{})
	commitUpload(t, leaderStore, 0)

	promoted := make(chan string, 1)
	opts := fastFollowerOpts()
	opts.FailoverAfter = 150 * time.Millisecond
	opts.ReadTimeout = 100 * time.Millisecond
	opts.OnPromote = func(reason string) { promoted <- reason }
	f := StartFollower(followerStore, addr, opts)
	defer f.Close()
	waitFor(t, 5*time.Second, "replicated before kill", func() bool { return followerStore.Seq() == 1 })

	if err := leader.Close(); err != nil {
		t.Fatalf("leader close: %v", err)
	}
	select {
	case <-promoted:
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not auto-promote after sustained leader loss")
	}
	if !f.Promoted() || !f.CaughtUp() {
		t.Fatalf("promoted=%v caughtUp=%v, want true,true", f.Promoted(), f.CaughtUp())
	}
	// Promotion is sticky and single-shot.
	if f.Promote("again") {
		t.Fatal("second Promote reported as performing the promotion")
	}
	// The promoted node accepts local mutations on the inherited sequence space.
	commitUpload(t, followerStore, 1)
	if followerStore.Seq() != 2 {
		t.Fatalf("post-promotion seq = %d, want 2", followerStore.Seq())
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte(`{"kind":"upload"}`)
	blob := []byte("not-really-gzip-but-opaque-here")
	if err := writeFrameMsg(&buf, 3, 7, payload); err != nil {
		t.Fatalf("writeFrameMsg: %v", err)
	}
	if err := writeSnapshotMsg(&buf, 9, blob); err != nil {
		t.Fatalf("writeSnapshotMsg: %v", err)
	}
	if err := writeHeartbeatMsg(&buf, 11); err != nil {
		t.Fatalf("writeHeartbeatMsg: %v", err)
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	m1, err := readMessage(br)
	if err != nil || m1.kind != msgFrame || m1.stripe != 3 || m1.seq != 7 || !bytes.Equal(m1.payload, payload) {
		t.Fatalf("frame round trip: %+v, %v", m1, err)
	}
	m2, err := readMessage(br)
	if err != nil || m2.kind != msgSnapshot || m2.seq != 9 || !bytes.Equal(m2.payload, blob) {
		t.Fatalf("snapshot round trip: %+v, %v", m2, err)
	}
	m3, err := readMessage(br)
	if err != nil || m3.kind != msgHeartbeat || m3.seq != 11 {
		t.Fatalf("heartbeat round trip: %+v, %v", m3, err)
	}
	if _, err := readMessage(br); err == nil {
		t.Fatal("read past end succeeded")
	}

	// A flipped payload bit must fail the CRC, not decode quietly.
	var corrupt bytes.Buffer
	if err := writeFrameMsg(&corrupt, 3, 7, payload); err != nil {
		t.Fatalf("writeFrameMsg: %v", err)
	}
	raw := corrupt.Bytes()
	raw[len(raw)-1] ^= 0x01
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("corrupt frame decoded without error")
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	if _, err := readHandshake(bytes.NewReader([]byte("NOTMAGIC\x00\x00\x00\x00\x00\x00\x00\x01"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestRetrainAndSweepRecordsReplicate: a retrain (on the training
// pairs' stripe) and per-entity sweep records travel like any other
// frame, the follower's per-stripe acks satisfy the leader's semi-sync
// barrier, and the follower ends in the leader's state. Runs at the
// default stripe width.
func TestRetrainAndSweepRecordsReplicate(t *testing.T) {
	leaderStore, followerStore := openStore(t), openStore(t)
	leader, addr := startLeader(t, leaderStore, LeaderOptions{
		SyncCommit: true, AckTimeout: 5 * time.Second,
	})
	f := StartFollower(followerStore, addr, fastFollowerOpts())
	defer f.Close()
	waitFor(t, 5*time.Second, "follower connected", f.Connected)

	for i := 0; i < 8; i++ {
		commitUpload(t, leaderStore, i)
	}
	for i := 0; i < 4; i++ {
		pair := &store.Record{Kind: store.KindTrainPair,
			Features: []float64{float64(i), float64(i % 2)}, TrainRating: 3.5, Category: "restaurant"}
		if err := leaderStore.Commit(pair); err != nil {
			t.Fatalf("train pair %d: %v", i, err)
		}
	}
	if err := leaderStore.Commit(&store.Record{Kind: store.KindRetrain}); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	commitUpload(t, leaderStore, 8)
	for _, sweep := range []*store.Record{
		{Kind: store.KindSweep, Entity: "ent/2", Dropped: []string{"anon-2", "anon-5"}},
		{Kind: store.KindSweep, Entity: "ent/0", Dropped: []string{"anon-3"}},
	} {
		if err := leaderStore.Commit(sweep); err != nil {
			t.Fatalf("sweep of %s: %v", sweep.Entity, err)
		}
	}
	if got := leaderStore.Histories().Stats().Histories; got != 6 {
		t.Fatalf("leader holds %d histories after the sweeps, want 6", got)
	}

	want := leaderStore.Seq()
	waitFor(t, 5*time.Second, "follower converged", func() bool { return followerStore.Seq() == want })
	waitFor(t, 5*time.Second, "leader saw full acks", func() bool { return leader.FollowerAck() == want })
	if followerStore.Models() == nil {
		t.Fatal("retrain did not rebuild the model on the follower")
	}
	ls, fs := leaderStore.Snapshot(), followerStore.Snapshot()
	for _, c := range []struct {
		name           string
		leader, follow any
	}{
		{"histories", ls.Histories, fs.Histories},
		{"opinions", ls.Opinions, fs.Opinions},
		{"training pairs", []any{ls.TrainX, ls.TrainY, ls.TrainCats}, []any{fs.TrainX, fs.TrainY, fs.TrainCats}},
		{"models", ls.Models, fs.Models},
		{"sequence vector", ls.WALSeqs, fs.WALSeqs},
	} {
		if !reflect.DeepEqual(c.leader, c.follow) {
			t.Fatalf("follower %s differ from the leader's:\n leader %+v\n follower %+v", c.name, c.leader, c.follow)
		}
	}
}

// TestSweptBindingSurvivesLeaderRestart: an ID whose history a sweep
// dropped stays bound to its entity on a leader restarted from a
// compacted snapshot, as it does on a follower that saw the sweep live.
// The restarted leader refuses the ID on another entity, so no frame
// reaches the follower that it would refuse, and the two converge.
func TestSweptBindingSurvivesLeaderRestart(t *testing.T) {
	opts := store.Options{
		Dir: t.TempDir(), NoSync: true, CompactEvery: -1,
		Clock: simclock.NewSim(simclock.Epoch), Logger: quietLogger(),
	}
	leaderStore, err := store.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	followerStore := openStore(t)
	leader, addr := startLeader(t, leaderStore, LeaderOptions{})
	f := StartFollower(followerStore, addr, fastFollowerOpts())
	defer f.Close()

	for i := 0; i < 6; i++ {
		commitUpload(t, leaderStore, i) // anon-i on ent/(i%3)
	}
	sweep := &store.Record{Kind: store.KindSweep, Entity: "ent/1", Dropped: []string{"anon-1", "anon-4"}}
	if err := leaderStore.Commit(sweep); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	want := leaderStore.Seq()
	waitFor(t, 5*time.Second, "follower saw the sweep", func() bool { return followerStore.Seq() == want })
	if err := leaderStore.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	leader.Close()
	if err := leaderStore.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	leaderStore, err = store.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer leaderStore.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen again on %s: %v", addr, err)
	}
	leader = NewLeader(leaderStore, LeaderOptions{Logger: quietLogger(), HeartbeatEvery: 20 * time.Millisecond})
	go leader.Serve(ln)
	defer leader.Close()

	visit := &interaction.Record{Entity: "ent/2", Kind: interaction.VisitKind, Start: simclock.Epoch}
	rebind := &store.Record{Kind: store.KindUpload, AnonID: "anon-1", Entity: "ent/2", Visit: visit, Key: "key-rebind"}
	if err := leaderStore.Commit(rebind); !errors.Is(err, history.ErrEntityMismatch) {
		t.Fatalf("restarted leader re-bound a swept ID: %v, want ErrEntityMismatch", err)
	}
	commitUpload(t, leaderStore, 1) // anon-1 back on ent/1: accepted
	commitUpload(t, leaderStore, 6)
	want = leaderStore.Seq()
	waitFor(t, 5*time.Second, "follower converged after the restart", func() bool { return followerStore.Seq() == want })
	ls, fs := leaderStore.Snapshot(), followerStore.Snapshot()
	if !reflect.DeepEqual(ls.Histories, fs.Histories) {
		t.Fatalf("follower histories differ from the leader's:\n leader %+v\n follower %+v", ls.Histories, fs.Histories)
	}
	if n := len(ls.Histories); n != 7 {
		t.Fatalf("leader dump holds %d entries, want 6 histories and anon-4's swept binding", n)
	}
}
