package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the store's replication surface. A leader exposes its
// commit stream two ways — live frames via SubscribeFrames (fan-out
// under the lane locks, never blocking a commit) and historical frames
// via ExportFrames (re-read from the per-stripe segments on disk) — and
// a follower ingests that stream through CommitReplicated, which
// applies records at the leader's exact (stripe, sequence) coordinates
// so the two stores share one sequence space per stripe. Every frame
// belongs to exactly one stripe, on disk and on the wire alike, so
// both ends of a replication stream are stores with a Dir: a
// memory-only store publishes no frames and has none to export.
// SetCommitBarrier lets the replication layer hold each local commit's
// acknowledgement until a follower has durably acked that stripe's
// sequence (semi-synchronous replication); without a barrier installed
// every call is a no-op.

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

// Frame is one committed record as it appears on the wire and in the
// log: its stripe index, the sequence it holds there, and its JSON
// payload. Payloads are shared across subscribers and must not be
// mutated.
type Frame struct {
	Stripe  int
	Seq     uint64
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
	// FrameGap: anything else — frames were lost in between, or some
	// stripes of a vector are held and others are not.
	FrameGap
)

// FramePosition is the one rule that places a frame in a replica's
// stream, on the leader (what a follower session was already sent) and
// on the follower (what its lanes hold) alike. want is the sequence
// wanted in each stripe, have the held sequence of those same stripes:
// a frame passes one-element slices, and the catch-up coverage checks
// pass whole vectors, where FrameDup means have covers want in every
// stripe and anything held in only some stripes is a gap.
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
// frames of different stripes interleave in lane-lock order. The store
// never blocks a commit on a subscriber: if the buffer fills, the
// subscription is marked lagged and C is closed — the consumer
// restarts its catch-up (disk export or snapshot) and resubscribes.
type FrameSub struct {
	ch     chan Frame
	start  []uint64
	once   sync.Once
	lagged atomic.Bool
}

// C delivers frames in commit order; closed when the subscription ends.
func (f *FrameSub) C() <-chan Frame { return f.ch }

// StartVec is the per-stripe sequence vector at subscription time:
// every frame on C sits strictly above it in its stripe, and everything
// at or below must come from ExportFrames or a snapshot.
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
// holds the frame's lane, so publication order within a stripe IS that
// stripe's commit order. Sends never block: a subscriber with a full
// buffer is dropped as lagged.
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
// snapshot.
func (s *Store) BaseVector() []uint64 {
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	return append([]uint64(nil), s.base...)
}

// ExportFrames invokes fn for every intact frame on disk strictly
// above the from vector, each stripe's frames in order, and returns the
// vector delivered. It first flushes and fsyncs every active segment so
// every record committed before the call is visible; frames appended
// concurrently may or may not appear (a torn in-flight tail simply ends
// that stripe's export — the caller's live subscription covers it).
// Returns ErrExportGap (possibly wrapped) when frames past from are
// compacted away. Compaction is held off for the duration, so a slow
// fn extends the life of the current segments but never corrupts them.
func (s *Store) ExportFrames(from []uint64, fn func(f Frame) error) ([]uint64, error) {
	n := len(s.lanes)
	if len(from) != n {
		return from, fmt.Errorf("store: export vector spans %d stripes, store has %d", len(from), n)
	}
	last := append([]uint64(nil), from...)
	if s.dir == "" {
		return last, errors.New("store: a memory-only store has no frames to export")
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
	// Segments come stripe by stripe, each stripe oldest-first; a torn
	// tail can only be the newest segment's in-flight frame, so the scan
	// simply moves on to the next segment.
	for _, seg := range segs {
		i := seg.stripe
		_, _, err := replaySegment(seg.path, func(seq uint64, payload []byte) error {
			if seq <= last[i] {
				return nil // predates the request, or duplicated across segments
			}
			if seq != last[i]+1 {
				return fmt.Errorf("%w (stripe %d: have %d, next on disk is %d)", ErrExportGap, i, last[i], seq)
			}
			if err := fn(Frame{Stripe: i, Seq: seq, Payload: payload}); err != nil {
				return err
			}
			last[i] = seq
			return nil
		})
		if err != nil {
			return last, err
		}
	}
	return last, nil
}

// CommitReplicated applies one leader frame at the leader's exact
// coordinates through the same lane commit Commit uses: append to this
// store's own log and wait for the fsync — the follower's durability
// promise is as strong as the leader's, which is what lets an ack
// stand in for the leader's own disk after failover. Duplicate
// delivery (already applied) is a silent no-op; a sequence gap is
// ErrReplicationGap and the session must re-seed.
func (s *Store) CommitReplicated(stripeIdx int, seq uint64, payload []byte) error {
	if s.failed.Load() {
		metricStoreUnavailable.Inc()
		return ErrUnavailable
	}
	if stripeIdx < 0 || stripeIdx >= len(s.lanes) {
		return fmt.Errorf("store: replicated record for stripe %d, store has %d stripes", stripeIdx, len(s.lanes))
	}
	if seq == 0 {
		return fmt.Errorf("store: replicated record for stripe %d has sequence 0", stripeIdx)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("store: decoding replicated record %d: %w", seq, err)
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
// for as long as it runs.
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

// AckBarrierAll gates on the store's full current vector, stripe by
// stripe. Exposed so acknowledgement paths that bypass Commit — the
// server's idempotent-replay fast path — can still refuse to ack ahead
// of replication.
func (s *Store) AckBarrierAll() error {
	p := s.barrier.Load()
	if p == nil {
		return nil
	}
	for i, seq := range s.SeqVector() {
		if err := (*p)(i, seq); err != nil {
			return err
		}
	}
	return nil
}
