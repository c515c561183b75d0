package replication

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/history"
	"opinions/internal/interaction"
	"opinions/internal/resilience"
	"opinions/internal/simclock"
	"opinions/internal/store"
	"opinions/internal/stripe"
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
	leader, addr := startLeader(t, leaderStore, LeaderOptions{AckTimeout: 100 * time.Millisecond})

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

// TestHandshakeRejectsOtherWidth: frames are addressed by stripe, so a
// handshake vector of any width but stripe.NumShards is refused.
func TestHandshakeRejectsOtherWidth(t *testing.T) {
	for _, n := range []int{1, 4, stripe.NumShards + 1} {
		var buf bytes.Buffer
		writeHandshake(&buf, make([]uint64, n))
		if _, err := readHandshake(&buf); err == nil {
			t.Errorf("handshake with %d stripes accepted", n)
		}
	}
	var buf bytes.Buffer
	writeHandshake(&buf, make([]uint64, stripe.NumShards))
	if _, err := readHandshake(&buf); err != nil {
		t.Fatalf("handshake at the shipped width: %v", err)
	}
}

// TestRetrainAndSweepRecordsReplicate: a retrain (on the training
// pairs' stripe) and per-entity sweep records travel like any other
// frame, the follower's per-stripe acks satisfy the leader's semi-sync
// barrier, and the follower ends in the leader's state. Runs at the
// default stripe width.
func TestRetrainAndSweepRecordsReplicate(t *testing.T) {
	leaderStore, followerStore := openStore(t), openStore(t)
	leader, addr := startLeader(t, leaderStore, LeaderOptions{AckTimeout: 5 * time.Second})
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

// anonIDs lists the anonymous IDs holding a history on entity.
func anonIDs(s *store.Store, entity string) []string {
	var ids []string
	for _, h := range s.Histories().ByEntity(entity) {
		ids = append(ids, h.AnonID)
	}
	return ids
}

// copyDir copies the files of a WAL directory, as a leader's disk
// stood at that moment.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerAheadOfRestartedLeaderRefused: a leader publishes a frame
// before the group fsync covers it, so a leader killed in that window
// restarts without a record its follower already applied. The
// follower, ahead in that stripe, must be refused: once the leader
// commits another record at that sequence, streaming would skip it as a
// duplicate and leave the two stores diverged at equal vectors. A
// refusal is leader contact, so an auto-failover follower does not
// promote itself over the live leader refusing it. Wiping the
// follower's directory is the remedy: it re-seeds from the leader.
func TestFollowerAheadOfRestartedLeaderRefused(t *testing.T) {
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
	var dials atomic.Int32 // sessions that reached a listener
	fopts := fastFollowerOpts()
	fopts.FailoverAfter = 500 * time.Millisecond
	fopts.Dial = func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			dials.Add(1)
		}
		return conn, err
	}
	f := StartFollower(followerStore, addr, fopts)
	defer f.Close()
	for i := 0; i < 3; i++ {
		commitUpload(t, leaderStore, i)
	}
	waitFor(t, 5*time.Second, "follower caught up", func() bool { return followerStore.Seq() == 3 })

	// The leader's disk as a kill -9 leaves it before record X's fsync:
	// X reaches the follower, but not the disk the leader restarts from.
	crashed := t.TempDir()
	copyDir(t, opts.Dir, crashed)
	visit := &interaction.Record{Entity: "ent/x", Kind: interaction.VisitKind, Start: simclock.Epoch}
	if err := leaderStore.Commit(&store.Record{Kind: store.KindUpload, AnonID: "anon-x", Entity: "ent/x", Visit: visit, Key: "key-x"}); err != nil {
		t.Fatalf("commit X: %v", err)
	}
	waitFor(t, 5*time.Second, "follower applied X", func() bool { return followerStore.Seq() == 4 })
	leader.Close()
	leaderStore.Close()

	opts.Dir = crashed
	restarted, err := store.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer restarted.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen again on %s: %v", addr, err)
	}
	refused, dialed := metricFollowersAhead.Value(), dials.Load()
	leader = NewLeader(restarted, LeaderOptions{Logger: quietLogger(), HeartbeatEvery: 20 * time.Millisecond})
	go leader.Serve(ln)
	defer leader.Close()
	restartedAt := time.Now()

	// Refused well past the failover deadline: still a follower.
	waitFor(t, 10*time.Second, "the follower's sessions refused and redialed", func() bool {
		return dials.Load() >= dialed+3 && time.Since(restartedAt) >= 3*fopts.FailoverAfter
	})
	if metricFollowersAhead.Value() == refused {
		t.Fatal("refusals not counted on replication_follower_ahead_total")
	}
	if f.Promoted() {
		t.Fatal("refused follower promoted itself while its leader was up")
	}
	if leader.Attached() != 0 || f.CaughtUp() {
		t.Fatalf("attached %d, caught up %v; want the ahead follower refused", leader.Attached(), f.CaughtUp())
	}
	f.Close()

	// Y takes the sequence X held in ent/x's stripe: equal vectors, two
	// histories. A follower with a wiped directory re-seeds onto Y.
	if err := restarted.Commit(&store.Record{Kind: store.KindUpload, AnonID: "anon-y", Entity: "ent/x", Visit: visit, Key: "key-y"}); err != nil {
		t.Fatalf("commit Y: %v", err)
	}
	if !slices.Equal(restarted.SeqVector(), followerStore.SeqVector()) {
		t.Fatalf("restarted leader at %v, follower at %v; want equal vectors", restarted.SeqVector(), followerStore.SeqVector())
	}
	if got := anonIDs(followerStore, "ent/x"); !slices.Equal(got, []string{"anon-x"}) {
		t.Fatalf("refused follower holds %v on ent/x, want its own [anon-x] untouched", got)
	}
	wiped := openStore(t)
	f2 := StartFollower(wiped, addr, fastFollowerOpts())
	defer f2.Close()
	waitFor(t, 5*time.Second, "wiped follower re-seeded", func() bool { return wiped.Seq() == restarted.Seq() })
	if got := anonIDs(wiped, "ent/x"); !slices.Equal(got, []string{"anon-y"}) {
		t.Fatalf("re-seeded follower holds %v on ent/x, want the leader's [anon-y]", got)
	}
}

// slowConn hands the follower the leader's stream a few bytes at a
// time, so catch-up takes many reads.
type slowConn struct{ net.Conn }

func (c slowConn) Read(p []byte) (int, error) {
	time.Sleep(100 * time.Microsecond)
	return c.Conn.Read(p[:min(len(p), 64)])
}

// TestNotCaughtUpDuringCatchUp: CaughtUp (and so rspd's /readyz) must
// read false while a fresh follower is still replaying the leader's
// backlog. Frames carry per-stripe sequences only, so the follower
// needs the leader's total before the first frame arrives.
func TestNotCaughtUpDuringCatchUp(t *testing.T) {
	leaderStore, followerStore := openStore(t), openStore(t)
	const n = 300
	for i := 0; i < n; i++ {
		commitUpload(t, leaderStore, i)
	}
	_, addr := startLeader(t, leaderStore, LeaderOptions{})
	opts := fastFollowerOpts()
	opts.Dial = func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		return slowConn{conn}, nil
	}
	f := StartFollower(followerStore, addr, opts)
	defer f.Close()
	waitFor(t, 20*time.Second, "catch-up", func() bool {
		caught, seq := f.CaughtUp(), followerStore.Seq()
		if caught && seq < n {
			t.Fatalf("follower reports caught up at seq %d of %d", seq, n)
		}
		return seq == n
	})
	waitFor(t, 5*time.Second, "caught up after catch-up", f.CaughtUp)
}
