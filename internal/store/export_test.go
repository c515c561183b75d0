package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"opinions/internal/stripe"
)

func TestSubscribeFramesDeliversCommitsInOrder(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer s.Close()
	commitN(t, s, 2)
	sub := s.SubscribeFrames(16)
	if got, want := sub.StartVec(), commitNVec(2); !equalSeqs(got, want) {
		t.Fatalf("StartVec = %v, want %v", got, want)
	}
	commitN2 := func(from, n int) {
		for i := from; i < from+n; i++ {
			rec := uploadRec(fmt.Sprintf("sub-%d", i), "ent/x", 4.0, fmt.Sprintf("sub-key-%d", i))
			if err := s.Commit(rec); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}
	commitN2(0, 3)
	x := stripe.Index("ent/x")
	start := sub.StartVec()[x]
	for want := start + 1; want <= start+3; want++ {
		f := <-sub.C()
		if f.Stripe != x || f.Seq != want {
			t.Fatalf("frame (stripe %d, seq %d), want (%d, %d)", f.Stripe, f.Seq, x, want)
		}
		if len(f.Payload) == 0 {
			t.Fatalf("frame %d has empty payload", f.Seq)
		}
	}
	s.Unsubscribe(sub)
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel open after Unsubscribe")
	}
	if sub.Lagged() {
		t.Fatal("clean unsubscribe reported as lagged")
	}
}

func TestSlowSubscriberIsDroppedNotBlocking(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer s.Close()
	sub := s.SubscribeFrames(1)
	commitN(t, s, 5) // buffer of 1: must overflow without stalling Commit
	if !sub.Lagged() {
		t.Fatal("overflowed subscription not marked lagged")
	}
	if _, ok := <-sub.C(); !ok {
		// drained the single buffered frame or already closed — both fine,
		// but the channel must end up closed.
		return
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("lagged subscription channel not closed")
	}
}

func TestExportFramesRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer s.Close()
	commitN(t, s, 6)
	var got []Frame
	from := commitNVec(2)
	last, err := s.ExportFrames(from, func(f Frame) error {
		if len(f.Payload) == 0 {
			t.Fatalf("empty payload at (%d, %d)", f.Stripe, f.Seq)
		}
		got = append(got, Frame{Stripe: f.Stripe, Seq: f.Seq})
		return nil
	})
	if err != nil {
		t.Fatalf("ExportFrames: %v", err)
	}
	if want := framesBetween(from, commitNVec(6)); !equalSeqs(last, commitNVec(6)) || len(want) != 4 || !slices.EqualFunc(got, want, samePosition) {
		t.Fatalf("exported %v (last %v), want records 3..6 at %v", got, last, want)
	}
	// A second store fed the exported frames must converge exactly.
	s2 := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer s2.Close()
	if _, err := s.ExportFrames(make([]uint64, stripe.NumShards), func(f Frame) error {
		return s2.CommitReplicated(f.Stripe, f.Seq, f.Payload)
	}); err != nil {
		t.Fatalf("replicating export: %v", err)
	}
	if s2.Seq() != s.Seq() {
		t.Fatalf("replica seq %d, leader %d", s2.Seq(), s.Seq())
	}
	if got, want := s2.Histories().Stats().Records, s.Histories().Stats().Records; got != want {
		t.Fatalf("replica records %d, leader %d", got, want)
	}
	if !s2.Ledger().Contains("key-1") {
		t.Fatal("dedup ledger did not replicate")
	}
}

func TestExportFramesGapAfterCompaction(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer s.Close()
	commitN(t, s, 4)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	base := commitNVec(4)
	if got := s.BaseVector(); !equalSeqs(got, base) {
		t.Fatalf("BaseVector = %v, want %v", got, base)
	}
	rec := uploadRec("post", "ent/x", 4.0, "post-key")
	if err := s.Commit(rec); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, err := s.ExportFrames(commitNVec(1), func(Frame) error { return nil }); !errors.Is(err, ErrExportGap) {
		t.Fatalf("export across compaction = %v, want ErrExportGap", err)
	}
	want := slices.Clone(base)
	want[stripe.Index("ent/x")]++
	last, err := s.ExportFrames(base, func(Frame) error { return nil })
	if err != nil || !equalSeqs(last, want) {
		t.Fatalf("export past base: last %v err %v, want %v nil", last, err, want)
	}
}

func TestCommitReplicatedDupAndGap(t *testing.T) {
	leader := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer leader.Close()
	follower := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer follower.Close()
	// Three records on one entity hold sequences 1..3 of one stripe.
	for i := 0; i < 3; i++ {
		if err := leader.Commit(uploadRec(fmt.Sprintf("anon-%d", i), "ent/0", 4.0, fmt.Sprintf("key-%d", i))); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	var frames []Frame
	if _, err := leader.ExportFrames(make([]uint64, stripe.NumShards), func(f Frame) error {
		frames = append(frames, f)
		return nil
	}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(frames) != 3 || frames[2].Stripe != frames[0].Stripe || frames[2].Seq != 3 {
		t.Fatalf("exported %d frames, want sequences 1..3 of one stripe", len(frames))
	}
	if err := follower.CommitReplicated(frames[0].Stripe, frames[0].Seq, frames[0].Payload); err != nil {
		t.Fatalf("apply 1: %v", err)
	}
	if err := follower.CommitReplicated(frames[0].Stripe, frames[0].Seq, frames[0].Payload); err != nil {
		t.Fatalf("duplicate delivery should no-op, got %v", err)
	}
	if follower.Seq() != 1 {
		t.Fatalf("seq after dup = %d, want 1", follower.Seq())
	}
	if err := follower.CommitReplicated(frames[2].Stripe, frames[2].Seq, frames[2].Payload); !errors.Is(err, ErrReplicationGap) {
		t.Fatalf("gap delivery = %v, want ErrReplicationGap", err)
	}
	// Replicated records must be as durable as local ones: reopen.
	if err := follower.CommitReplicated(frames[1].Stripe, frames[1].Seq, frames[1].Payload); err != nil {
		t.Fatalf("apply 2: %v", err)
	}
	dir := follower.dir
	if err := follower.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	defer re.Close()
	if re.Seq() != 2 || re.Histories().Stats().Records != 2 {
		t.Fatalf("reopened replica seq %d records %d, want 2/2", re.Seq(), re.Histories().Stats().Records)
	}
}

func TestCommitBarrierGatesAcks(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer s.Close()
	x := stripe.Index("ent/x")
	var seen []uint64
	s.SetCommitBarrier(func(stripeIdx int, seq uint64) error {
		if stripeIdx != x {
			t.Errorf("barrier stripe = %d, want %d", stripeIdx, x)
		}
		seen = append(seen, seq)
		if seq >= 2 {
			return ErrReplicationLag
		}
		return nil
	})
	if err := s.Commit(uploadRec("a", "ent/x", 4.0, "bar-1")); err != nil {
		t.Fatalf("commit under passing barrier: %v", err)
	}
	err := s.Commit(uploadRec("b", "ent/x", 4.0, "bar-2"))
	if !errors.Is(err, ErrReplicationLag) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("commit under failing barrier = %v, want ErrReplicationLag wrapping ErrUnavailable", err)
	}
	if s.Failed() {
		t.Fatal("barrier timeout must not latch the store")
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("barrier saw %v, want [1 2]", seen)
	}
	// The record behind a lagged ack is still durable and applied.
	if s.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", s.Seq())
	}
	s.SetCommitBarrier(nil)
	if err := s.Commit(uploadRec("c", "ent/x", 4.0, "bar-3")); err != nil {
		t.Fatalf("commit after barrier removal: %v", err)
	}
}

// TestExportReplayMultiStripe: a full multi-stripe export — uploads
// spread across stripes plus a sweep record — replayed through
// CommitReplicated rebuilds an identical store: same vector, same
// state, every record delivered exactly once.
func TestExportReplayMultiStripe(t *testing.T) {
	src := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer src.Close()
	for i := 0; i < 12; i++ {
		rec := uploadRec(fmt.Sprintf("mx-%d", i), fmt.Sprintf("ent/%d", i), 4.0, fmt.Sprintf("mx-key-%d", i))
		if err := src.Commit(rec); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := src.Commit(&Record{Kind: KindSweep, Entity: "ent/3", Dropped: []string{"mx-3"}}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i := 12; i < 16; i++ {
		rec := uploadRec(fmt.Sprintf("mx-%d", i), fmt.Sprintf("ent/%d", i), 4.0, fmt.Sprintf("mx-key-%d", i))
		if err := src.Commit(rec); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	dst := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer dst.Close()
	frames := 0
	last, err := src.ExportFrames(make([]uint64, stripe.NumShards), func(f Frame) error {
		frames++
		return dst.CommitReplicated(f.Stripe, f.Seq, f.Payload)
	})
	if err != nil {
		t.Fatalf("ExportFrames: %v", err)
	}
	if frames != 17 {
		t.Fatalf("exported %d frames, want the 17 records committed", frames)
	}
	if want := src.SeqVector(); !equalSeqs(last, want) {
		t.Fatalf("export ended at %v, want %v", last, want)
	}
	if !equalSeqs(dst.SeqVector(), src.SeqVector()) {
		t.Fatalf("replica vector %v, source %v", dst.SeqVector(), src.SeqVector())
	}
	if got, want := dst.Histories().Stats().Records, src.Histories().Stats().Records; got != want {
		t.Fatalf("replica records %d, source %d", got, want)
	}
	if got := dst.Histories().ByEntity("ent/3"); len(got) != 0 {
		t.Fatalf("sweep did not replay on the replica: ent/3 holds %d histories", len(got))
	}
	// Replaying the same stream again is a pile of no-ops, not a fork.
	_, err = src.ExportFrames(make([]uint64, stripe.NumShards), func(f Frame) error {
		return dst.CommitReplicated(f.Stripe, f.Seq, f.Payload)
	})
	if err != nil {
		t.Fatalf("second ExportFrames: %v", err)
	}
	if !equalSeqs(dst.SeqVector(), src.SeqVector()) {
		t.Fatalf("vector diverged after duplicate replay: %v vs %v", dst.SeqVector(), src.SeqVector())
	}
}

// TestFramePosition: the one rule that places a frame against what a
// replica holds — a frame by its stripe's sequence, a catch-up check by
// the whole vector, where anything held in only some stripes is a gap.
func TestFramePosition(t *testing.T) {
	cases := []struct {
		name       string
		have, want []uint64
		pos        Position
	}{
		{"single/dup", []uint64{3}, []uint64{2}, FrameDup},
		{"single/dup-equal", []uint64{3}, []uint64{3}, FrameDup},
		{"single/next", []uint64{3}, []uint64{4}, FrameNext},
		{"single/gap", []uint64{3}, []uint64{5}, FrameGap},
		{"barrier/fully-delivered", []uint64{2, 3}, []uint64{2, 3}, FrameDup},
		{"barrier/partially-delivered", []uint64{2, 2}, []uint64{2, 3}, FrameGap},
		{"barrier/one-short-everywhere", []uint64{1, 2}, []uint64{2, 3}, FrameNext},
		{"barrier/two-short", []uint64{1, 1}, []uint64{2, 3}, FrameGap},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := FramePosition(c.have, c.want); got != c.pos {
				t.Fatalf("FramePosition(%v, %v) = %d, want %d", c.have, c.want, got, c.pos)
			}
		})
	}
}

// TestReplicatedSweepsCommitLikeLocal: sweep records taken from a
// leader go through the same commit as the leader's own — they count
// toward auto-compaction and raise store_commits_total{kind} by one
// each, as on the leader — and a reopened follower holds the leader's
// vector.
func TestReplicatedSweepsCommitLikeLocal(t *testing.T) {
	const n = 4
	sweeps := metricStoreCommits.With(string(KindSweep))
	leader := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer leader.Close()
	sweeps0 := sweeps.Value()
	for i := 0; i < n; i++ {
		rec := &Record{Kind: KindSweep, Entity: fmt.Sprintf("ent/%d", i), Dropped: []string{fmt.Sprintf("gone-%d", i)}}
		if err := leader.Commit(rec); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	if d := sweeps.Value() - sweeps0; d != n {
		t.Fatalf("leader: %d sweeps raised the sweep counter by %d", n, d)
	}
	var frames []Frame
	if _, err := leader.ExportFrames(make([]uint64, stripe.NumShards), func(f Frame) error {
		frames = append(frames, f)
		return nil
	}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(frames) != n {
		t.Fatalf("exported %d frames, want %d sweeps", len(frames), n)
	}

	dir := t.TempDir()
	follower := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: 2})
	sweeps0, replicated0 := sweeps.Value(), metricStoreReplicated.Value()
	for _, f := range frames {
		if err := follower.CommitReplicated(f.Stripe, f.Seq, f.Payload); err != nil {
			t.Fatalf("replicating (%d, %d): %v", f.Stripe, f.Seq, err)
		}
	}
	if d, r := sweeps.Value()-sweeps0, metricStoreReplicated.Value()-replicated0; d != n || r != n {
		t.Fatalf("follower: %d replicated sweeps raised the sweep counter by %d, the replicated counter by %d", n, d, r)
	}
	// The fold runs on a background goroutine; give it a bounded moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot after %d replicated sweeps with CompactEvery 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := follower.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	defer re.Close()
	if !equalSeqs(re.SeqVector(), leader.SeqVector()) {
		t.Fatalf("reopened follower at %v, leader at %v", re.SeqVector(), leader.SeqVector())
	}
}
