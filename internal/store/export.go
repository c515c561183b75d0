package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the store's replication surface. A leader exposes its
// commit stream two ways — live frames via SubscribeFrames (fan-out
// under the lane locks, never blocking a commit) and historical frames
// via ExportFrames (re-read from the per-stripe segments on disk) — and
// a follower ingests that stream through CommitReplicated, which
// applies records at the leader's exact (stripe, sequence) coordinates
// so the two stores share one sequence space per stripe. Barrier
// records travel once on the wire (Stripe == BarrierStripe) and land in
// every stripe's log on both sides. SetCommitBarrier lets the
// replication layer hold each local commit's acknowledgement until a
// follower has durably acked that stripe's sequence (semi-synchronous
// replication); without a barrier installed every call is a no-op.

// ErrReplicationLag is returned by Commit when the record is durable
// locally but the replication commit barrier timed out waiting for a
// follower acknowledgement. It wraps ErrUnavailable so the HTTP layer
// maps it to 503 and clients spool-and-retry, but — unlike a WAL
// failure — it does not latch the store: local durability is intact and
// the retry is absorbed by the idempotency ledger.
var ErrReplicationLag = fmt.Errorf("%w (locally durable; follower acknowledgement timed out)", ErrUnavailable)

// ErrReplicationGap reports a CommitReplicated frame that does not
// contiguously extend the local stripes (FramePosition's FrameGap) —
// frames were lost in transit and the session must re-handshake (the
// leader re-sends or falls back to a snapshot).
var ErrReplicationGap = errors.New("store: replicated record out of sequence")

// ErrExportGap reports that frames past the requested vector are no
// longer on disk (compaction folded them into the snapshot); the caller
// must seed from a snapshot instead.
var ErrExportGap = errors.New("store: requested WAL frames no longer on disk")

// BarrierStripe is the Stripe value of a barrier frame: the record is
// not one stripe's — it consumed a sequence slot in every stripe
// (Frame.Seqs), and its single wire copy must be applied against all of
// them atomically.
const BarrierStripe = -1

// Frame is one committed record as it appears on the wire and in the
// log. A single-stripe record carries its stripe index and the
// sequence it holds there; a barrier record carries Stripe ==
// BarrierStripe and its full per-stripe sequence vector. Payloads (and
// Seqs) are shared across subscribers and must not be mutated.
type Frame struct {
	Stripe  int
	Seq     uint64
	Seqs    []uint64 // barrier frames only: the per-stripe sequences consumed
	Payload []byte
}

// Position is where a frame falls against the sequences a replica
// already holds; see FramePosition.
type Position int

const (
	// FrameDup: every sequence the frame consumes is already held —
	// redelivery, to be skipped.
	FrameDup Position = iota
	// FrameNext: every sequence is exactly one past what is held — the
	// frame extends the replica contiguously.
	FrameNext
	// FrameGap: anything else — frames were lost in between, or a
	// barrier is held in some stripes and not others.
	FrameGap
)

// FramePosition is the one rule that places a frame in a replica's
// stream, on the leader (what a follower session was already sent) and
// on the follower (what its lanes hold) alike. want is the sequence
// the frame consumes in each stripe it spans, have the held sequence
// of those same stripes: a single-stripe frame passes one-element
// slices, a barrier the full vectors. A barrier delivered in only some
// stripes is a gap, never a partial duplicate.
func FramePosition(have, want []uint64) Position {
	held, next := 0, 0
	for i, w := range want {
		switch {
		case have[i] >= w:
			held++
		case have[i] == w-1:
			next++
		}
	}
	if held == len(want) {
		return FrameDup
	}
	if next == len(want) {
		return FrameNext
	}
	return FrameGap
}

// FrameSub is a live subscription to the commit stream. Frames arrive
// on C in per-stripe commit order starting strictly after StartVec;
// frames of different stripes interleave in lane-lock order, and a
// barrier frame is ordered against every stripe (it is published while
// all lanes are held). The store never blocks a commit on a
// subscriber: if the buffer fills, the subscription is marked lagged
// and C is closed — the consumer restarts its catch-up (disk export or
// snapshot) and resubscribes.
type FrameSub struct {
	ch     chan Frame
	start  []uint64
	once   sync.Once
	lagged atomic.Bool
}

// C delivers frames in commit order; closed when the subscription ends.
func (f *FrameSub) C() <-chan Frame { return f.ch }

// StartVec is the per-stripe sequence vector at subscription time:
// every frame on C sits strictly above it in its stripe (a barrier
// frame strictly above it in every stripe), and everything at or below
// must come from ExportFrames or a snapshot.
func (f *FrameSub) StartVec() []uint64 {
	return append([]uint64(nil), f.start...)
}

// Lagged reports whether the subscription was dropped for falling
// behind (as opposed to Unsubscribe or store close).
func (f *FrameSub) Lagged() bool { return f.lagged.Load() }

func (f *FrameSub) close() { f.once.Do(func() { close(f.ch) }) }

func (f *FrameSub) lag() {
	f.lagged.Store(true)
	f.close()
}

// SubscribeFrames registers a live commit-stream subscription with the
// given channel buffer (default 1024). The StartVec cut is taken while
// every lane is held, so no frame is ever both covered by StartVec and
// delivered on C.
func (s *Store) SubscribeFrames(buf int) *FrameSub {
	if buf <= 0 {
		buf = 1024
	}
	sub := &FrameSub{ch: make(chan Frame, buf)}
	s.lockAll()
	sub.start = s.SeqVector()
	s.subMu.Lock()
	if s.subs == nil {
		s.subs = make(map[*FrameSub]struct{})
	}
	s.subs[sub] = struct{}{}
	s.nsubs.Add(1)
	s.subMu.Unlock()
	s.unlockAll()
	return sub
}

// Unsubscribe ends a subscription and closes its channel. Idempotent,
// and safe on a subscription the store already dropped as lagged.
func (s *Store) Unsubscribe(sub *FrameSub) {
	s.subMu.Lock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		s.nsubs.Add(-1)
	}
	s.subMu.Unlock()
	sub.close()
}

// publish fans one committed frame out to subscribers. The caller
// holds the frame's lane — every lane for a barrier frame — so
// publication order within a stripe IS that stripe's commit order, and
// a barrier is totally ordered against all stripes. Sends never block:
// a subscriber with a full buffer is dropped as lagged.
func (s *Store) publish(f Frame) {
	if s.nsubs.Load() == 0 {
		return
	}
	s.subMu.Lock()
	for sub := range s.subs {
		select {
		case sub.ch <- f:
		default:
			sub.lag()
			delete(s.subs, sub)
			s.nsubs.Add(-1)
			metricFrameSubsLagged.Inc()
		}
	}
	s.subMu.Unlock()
}

// dropSubs ends every subscription. Restores mark them lagged (the
// state jumped; consumers must re-seed); Close ends them cleanly.
func (s *Store) dropSubs(lagged bool) {
	s.subMu.Lock()
	for sub := range s.subs {
		if lagged {
			sub.lag()
		} else {
			sub.close()
		}
		delete(s.subs, sub)
	}
	s.nsubs.Store(0)
	s.subMu.Unlock()
}

// setBase records the per-stripe fold point (frames at or below it may
// no longer exist on disk).
func (s *Store) setBase(vec []uint64) {
	cp := append([]uint64(nil), vec...)
	s.baseMu.Lock()
	s.base = cp
	s.baseMu.Unlock()
}

// BaseVector returns, per stripe, the sequence at or below which WAL
// frames may no longer exist on disk — they are folded into the
// snapshot. A replica whose applied vector sits below the base in any
// stripe cannot be caught up by frames alone and must be seeded with a
// snapshot. Memory-only stores have no frames at all, so their base is
// the current vector.
func (s *Store) BaseVector() []uint64 {
	if s.lanes[0].log == nil {
		return s.SeqVector()
	}
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	return append([]uint64(nil), s.base...)
}

// exportFrame is one on-disk frame staged for export merge.
type exportFrame struct {
	seq     uint64
	seqs    []uint64 // non-nil for barrier records
	payload []byte
}

// stripeSeqsKey is the cheap pre-filter for barrier detection during
// export: only payloads containing it are decoded.
var stripeSeqsKey = []byte(`"stripe_seqs"`)

// ExportFrames invokes fn, in per-stripe order, for every intact frame
// on disk strictly above the from vector, and returns the vector
// delivered. Frames of different stripes are interleaved in rounds
// split at barriers: each stripe's records up to the next barrier,
// then the barrier exactly once (Stripe == BarrierStripe) — the same
// interleaving contract a follower needs to apply them. It first
// flushes and fsyncs every active segment so every record committed
// before the call is visible; frames appended concurrently may or may
// not appear (a torn in-flight tail, or a barrier not yet durable in
// every scanned stripe, simply ends the export — the caller's live
// subscription covers it). Returns ErrExportGap (possibly wrapped)
// when frames past from are compacted away. Compaction is held off for
// the duration, so a slow fn extends the life of the current segments
// but never corrupts them.
func (s *Store) ExportFrames(from []uint64, fn func(f Frame) error) ([]uint64, error) {
	n := len(s.lanes)
	if len(from) != n {
		return from, fmt.Errorf("store: export vector spans %d stripes, store has %d", len(from), n)
	}
	last := append([]uint64(nil), from...)
	if s.lanes[0].log == nil {
		if FramePosition(from, s.SeqVector()) != FrameDup {
			return last, ErrExportGap
		}
		return last, nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if base := s.BaseVector(); FramePosition(from, base) != FrameDup {
		return last, fmt.Errorf("%w (have %v, oldest on disk follows %v)", ErrExportGap, from, base)
	}
	for _, ln := range s.lanes {
		if err := ln.log.flush(); err != nil {
			return last, fmt.Errorf("store: flushing WAL for export: %w", err)
		}
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		return last, err
	}
	staged := make([][]exportFrame, n)
	for _, seg := range segs {
		i := seg.stripe
		_, torn, err := replaySegment(seg.path, func(seq uint64, payload []byte) error {
			if seq <= from[i] {
				return nil // predates the request, or duplicated across segments
			}
			want := from[i] + uint64(len(staged[i])) + 1
			if seq != want {
				return fmt.Errorf("%w (stripe %d: have %d, next on disk is %d)", ErrExportGap, i, want-1, seq)
			}
			f := exportFrame{seq: seq, payload: append([]byte(nil), payload...)}
			if bytes.Contains(payload, stripeSeqsKey) {
				var probe struct {
					StripeSeqs []uint64 `json:"stripe_seqs"`
				}
				if err := json.Unmarshal(payload, &probe); err != nil {
					return fmt.Errorf("store: decoding frame %d in %s: %w", seq, seg.path, err)
				}
				f.seqs = probe.StripeSeqs
			}
			staged[i] = append(staged[i], f)
			return nil
		})
		if err != nil {
			return last, err
		}
		if torn {
			// A concurrently-appended in-flight tail: everything durable in
			// this stripe was read; stop at the segment (segments within a
			// stripe are scanned oldest-first, and only the newest is live).
			continue
		}
	}
	cursors := make([]int, n)
	for {
		for i := 0; i < n; i++ {
			for cursors[i] < len(staged[i]) {
				f := staged[i][cursors[i]]
				if f.seqs != nil {
					break // rendezvous at the barrier
				}
				if err := fn(Frame{Stripe: i, Seq: f.seq, Payload: f.payload}); err != nil {
					return last, err
				}
				last[i] = f.seq
				cursors[i]++
			}
		}
		var bar *exportFrame
		exhausted := false
		for i := 0; i < n; i++ {
			if cursors[i] >= len(staged[i]) {
				exhausted = true
				continue
			}
			f := &staged[i][cursors[i]]
			if bar == nil {
				bar = f
			} else if !slices.Equal(bar.seqs, f.seqs) {
				return last, fmt.Errorf("store: stripes disagree on the next barrier during export (%v vs %v)", bar.seqs, f.seqs)
			}
		}
		if bar == nil {
			return last, nil
		}
		if exhausted {
			// The barrier landed mid-export and some stripes were scanned
			// before its copy reached them. It is not yet provably durable
			// everywhere from this view — end the export at the round
			// boundary; the live subscription carries the barrier.
			return last, nil
		}
		if err := fn(Frame{Stripe: BarrierStripe, Seqs: bar.seqs, Payload: bar.payload}); err != nil {
			return last, err
		}
		copy(last, bar.seqs)
		for i := range cursors {
			cursors[i]++
		}
	}
}

// CommitReplicated applies one leader frame at the leader's exact
// coordinates through the same lane and barrier commits Commit uses:
// append to this store's own log and wait for the fsync — the
// follower's durability promise is as strong as the leader's, which is
// what lets an ack stand in for the leader's own disk after failover.
// A barrier frame (payload carrying stripe_seqs, conventionally
// delivered with stripeIdx == BarrierStripe) is applied once and
// logged to every stripe, fsynced everywhere before the call returns.
// Duplicate delivery (already applied) is a silent no-op; a sequence
// gap, or a barrier held in only some stripes, is ErrReplicationGap and
// the session must re-seed.
func (s *Store) CommitReplicated(stripeIdx int, seq uint64, payload []byte) error {
	if s.failed.Load() {
		metricStoreUnavailable.Inc()
		return ErrUnavailable
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("store: decoding replicated record %d: %w", seq, err)
	}
	if rec.StripeSeqs != nil || stripeIdx == BarrierStripe {
		if len(rec.StripeSeqs) != len(s.lanes) {
			return fmt.Errorf("store: replicated barrier spans %d stripes, store has %d", len(rec.StripeSeqs), len(s.lanes))
		}
		return s.commitBarrier(&rec, rec.StripeSeqs, payload)
	}
	if stripeIdx < 0 || stripeIdx >= len(s.lanes) {
		return fmt.Errorf("store: replicated record for stripe %d, store has %d stripes", stripeIdx, len(s.lanes))
	}
	if seq == 0 {
		return fmt.Errorf("store: replicated record for stripe %d has sequence 0", stripeIdx)
	}
	return s.commitLane(stripeIdx, seq, &rec, payload)
}

// barrierFunc gates a commit's acknowledgement on replication progress
// for one stripe's sequence.
type barrierFunc func(stripeIdx int, seq uint64) error

// SetCommitBarrier installs fn to run after every commit's local fsync
// and before its acknowledgement, with the committed record's stripe
// and the sequence it holds there; fn returning an error surfaces from
// Commit (conventionally ErrReplicationLag) without latching the store.
// A nil fn removes the barrier. The replication leader installs one
// when semi-synchronous mode is on.
func (s *Store) SetCommitBarrier(fn func(stripeIdx int, seq uint64) error) {
	if fn == nil {
		s.barrier.Store(nil)
		return
	}
	b := barrierFunc(fn)
	s.barrier.Store(&b)
}

// AckBarrier runs the installed commit barrier for one stripe's
// sequence (no-op when none is installed).
func (s *Store) AckBarrier(stripeIdx int, seq uint64) error {
	p := s.barrier.Load()
	if p == nil {
		return nil
	}
	return (*p)(stripeIdx, seq)
}

// AckBarrierVec runs the barrier for every stripe of a barrier
// record's vector; the waits are sequential, so the worst case is one
// timeout per stripe — acceptable for rare administrative mutations.
func (s *Store) AckBarrierVec(seqs []uint64) error {
	p := s.barrier.Load()
	if p == nil {
		return nil
	}
	for i, seq := range seqs {
		if err := (*p)(i, seq); err != nil {
			return err
		}
	}
	return nil
}

// AckBarrierAll gates on the store's full current vector. Exposed so
// acknowledgement paths that bypass Commit — the server's
// idempotent-replay fast path — can still refuse to ack ahead of
// replication.
func (s *Store) AckBarrierAll() error {
	if s.barrier.Load() == nil {
		return nil
	}
	return s.AckBarrierVec(s.SeqVector())
}
