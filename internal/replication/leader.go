package replication

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"opinions/internal/storage"
	"opinions/internal/store"
)

// subBuffer is the per-session live-frame buffer; a follower that
// falls further behind than this is dropped back to catch-up.
const subBuffer = 4096

// LeaderOptions configures the shipping side. Replication is always
// semi-synchronous: while at least one follower is attached, a commit
// is acknowledged only after a follower acks its stripe's sequence (or
// AckTimeout passes, surfacing ErrReplicationLag to the committer).
// With no follower attached the barrier waves commits through — a lone
// leader must not stall — and counts them as degraded.
type LeaderOptions struct {
	// AckTimeout bounds the barrier wait (default 2s).
	AckTimeout time.Duration
	// HeartbeatEvery paces idle-stream heartbeats (default 1s).
	HeartbeatEvery time.Duration
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

// Leader serves the store's commit stream to followers. One Leader can
// carry several sessions; the commit barrier waits, per stripe, on the
// most caught-up one.
type Leader struct {
	st   *store.Store
	opts LeaderOptions
	acks ackTracker

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

var errLeaderClosed = errors.New("replication: leader closed")

// NewLeader wires a leader to its store, which must have a Dir, and
// installs the store's commit barrier on the spot. Call Serve to
// accept followers.
func NewLeader(st *store.Store, opts LeaderOptions) *Leader {
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * time.Second
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	l := &Leader{st: st, opts: opts, conns: make(map[net.Conn]struct{})}
	l.acks.init(st.NumStripes())
	st.SetCommitBarrier(l.barrier)
	return l
}

func (l *Leader) barrier(stripe int, seq uint64) error {
	return l.acks.wait(stripe, seq, l.opts.AckTimeout)
}

// FollowerAck returns the total sequence acknowledged across stripes —
// the sum of the best per-stripe acks, comparable with Store.Seq().
func (l *Leader) FollowerAck() uint64 {
	vec, _ := l.acks.snapshot()
	var sum uint64
	for _, v := range vec {
		sum += v
	}
	return sum
}

// Attached reports how many follower sessions are currently streaming.
func (l *Leader) Attached() int {
	_, n := l.acks.snapshot()
	return n
}

// Serve accepts follower connections on ln until the listener or the
// leader is closed; each connection gets its own streaming session.
// Blocks; run it on its own goroutine.
func (l *Leader) Serve(ln net.Listener) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return errLeaderClosed
	}
	l.lns = append(l.lns, ln)
	l.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return nil
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			l.serveConn(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Close stops accepting, tears down sessions, and removes the commit
// barrier. Safe to call more than once.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	lns := l.lns
	conns := make([]net.Conn, 0, len(l.conns))
	for conn := range l.conns {
		conns = append(conns, conn)
	}
	l.mu.Unlock()
	l.st.SetCommitBarrier(nil)
	for _, ln := range lns {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	l.wg.Wait()
	return nil
}

// serveConn runs one follower session: handshake, a heartbeat with
// the leader's total (so the follower does not count itself caught up
// while catch-up is still running), catch-up (disk frames, or a
// snapshot when the follower is behind the compaction base), then the
// live stream with heartbeats, while a side goroutine consumes acks.
// Any error ends the session; the follower redials and the next
// handshake resumes from wherever its disk actually is.
func (l *Leader) serveConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	followerVec, err := readHandshake(conn)
	if err != nil {
		l.opts.Logger.Warn("replication: handshake failed", "remote", conn.RemoteAddr(), "err", err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	if vec := l.st.SeqVector(); store.FramePosition(vec, followerVec) != store.FrameDup {
		// The follower holds a frame this leader does not: the leader lost
		// it (frames leave before the group fsync) and may since have
		// committed another record at that sequence. Streaming would skip
		// that record as a duplicate and leave the two stores diverged at
		// equal vectors; snapshot-seeding cannot help, since Restore never
		// lowers a lane. Refusing makes the divergence visible; the
		// refusal message tells the follower its leader is alive, so it
		// does not take the refusal for an outage and promote itself.
		metricFollowersAhead.Inc()
		l.opts.Logger.Error("replication: follower is ahead of the leader; refusing it (wipe the follower's -wal-dir to re-seed it)",
			"remote", conn.RemoteAddr(), "follower_vec", followerVec, "leader_vec", vec)
		writeRefusalMsg(conn)
		return
	}
	metricFollowersConnected.Add(1)
	defer metricFollowersConnected.Add(-1)

	// Subscribe before catch-up: everything at or below sub.StartVec()
	// comes from disk (or the snapshot), everything after arrives on the
	// subscription, and the seams overlap rather than gap.
	sub := l.st.SubscribeFrames(subBuffer)
	defer l.st.Unsubscribe(sub)
	l.acks.attach(followerVec)
	defer l.acks.detach()

	bw := bufio.NewWriterSize(conn, 1<<16)
	last := followerVec
	err = writeHeartbeatMsg(bw, l.st.Seq())
	if err == nil {
		last, err = l.catchUp(bw, followerVec, sub)
	}
	if err == nil {
		err = writeHeartbeatMsg(bw, l.st.Seq())
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		l.opts.Logger.Warn("replication: catch-up failed", "remote", conn.RemoteAddr(), "err", err)
		return
	}
	l.opts.Logger.Info("replication: follower attached",
		"remote", conn.RemoteAddr(), "follower_vec", followerVec, "caught_up_to", last)

	go l.readAcks(conn)

	ticker := time.NewTicker(l.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case f, ok := <-sub.C():
			if !ok {
				// Lagged past the buffer, or the store closed/restored.
				// Ending the session makes the follower redial into a
				// fresh catch-up.
				l.opts.Logger.Warn("replication: subscription ended",
					"remote", conn.RemoteAddr(), "lagged", sub.Lagged())
				return
			}
			if err := streamFrame(bw, last, f); err != nil {
				return
			}
			// Drain whatever else is buffered before paying the flush.
		drain:
			for {
				select {
				case f, ok := <-sub.C():
					if !ok {
						break drain
					}
					if err := streamFrame(bw, last, f); err != nil {
						return
					}
				default:
					break drain
				}
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case <-ticker.C:
			if err := writeHeartbeatMsg(bw, l.st.Seq()); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// streamFrame ships one live frame, keeping last — the per-stripe
// vector already delivered — contiguous by store.FramePosition: a
// frame already delivered during catch-up is skipped, the next one
// travels, and anything else is a stream gap (the session restarts into
// a fresh catch-up).
func streamFrame(bw *bufio.Writer, last []uint64, f store.Frame) error {
	switch store.FramePosition(last[f.Stripe:f.Stripe+1], []uint64{f.Seq}) {
	case store.FrameDup:
		return nil
	case store.FrameGap:
		return fmt.Errorf("replication: stream gap in stripe %d: have %d, next live frame is %d", f.Stripe, last[f.Stripe], f.Seq)
	}
	if err := writeFrame(bw, f); err != nil {
		return err
	}
	last[f.Stripe] = f.Seq
	return nil
}

// writeFrame puts one store frame on the wire and counts it.
func writeFrame(bw *bufio.Writer, f store.Frame) error {
	if err := writeFrameMsg(bw, uint32(f.Stripe), f.Seq, f.Payload); err != nil {
		return err
	}
	metricFrames.Inc()
	metricBytes.Add(uint64(len(f.Payload)))
	return nil
}

// catchUp brings a follower from its handshake vector to at least the
// subscription start, returning the vector written. Frames come from
// disk when they are still there; otherwise (behind the compaction
// base in any stripe, or a gap) the follower is re-seeded with a full
// snapshot. "Already holds" is FramePosition's FrameDup: every
// component at or past the other vector.
func (l *Leader) catchUp(bw *bufio.Writer, from []uint64, sub *store.FrameSub) ([]uint64, error) {
	if store.FramePosition(from, l.st.BaseVector()) == store.FrameDup {
		last, err := l.st.ExportFrames(from, func(f store.Frame) error {
			if err := writeFrame(bw, f); err != nil {
				return err
			}
			if bw.Buffered() > 1<<15 {
				return bw.Flush()
			}
			return nil
		})
		if err == nil && store.FramePosition(last, sub.StartVec()) == store.FrameDup {
			return last, nil
		}
		if err != nil && !errors.Is(err, store.ErrExportGap) {
			return last, err
		}
		// Fall through: compacted away underneath us, or the disk ended
		// short of the subscription start. Snapshot covers both.
	}
	snap := l.st.Snapshot()
	var buf bytes.Buffer
	if err := storage.Write(&buf, snap); err != nil {
		return from, err
	}
	var total uint64
	for _, v := range snap.WALSeqs {
		total += v
	}
	if err := writeSnapshotMsg(bw, total, buf.Bytes()); err != nil {
		return from, err
	}
	metricSnapshots.Inc()
	metricBytes.Add(uint64(buf.Len()))
	return append([]uint64(nil), snap.WALSeqs...), nil
}

// readAcks consumes the follower's ack stream, advancing the shared
// tracker (which is what releases semi-sync commits) and the lag gauge.
// A quiet or broken follower trips the read deadline; closing the
// connection ends the write side too.
func (l *Leader) readAcks(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<10)
	deadline := 10 * l.opts.HeartbeatEvery
	n := l.st.NumStripes()
	for {
		conn.SetReadDeadline(time.Now().Add(deadline))
		stripe, seq, err := readAck(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				l.opts.Logger.Warn("replication: ack stream ended", "remote", conn.RemoteAddr(), "err", err)
			}
			return
		}
		if int(stripe) >= n {
			l.opts.Logger.Warn("replication: ack for unknown stripe", "remote", conn.RemoteAddr(), "stripe", stripe)
			return
		}
		l.acks.advance(int(stripe), seq)
		if cur, acked := l.st.Seq(), l.FollowerAck(); cur > acked {
			metricFollowerLag.Set(int64(cur - acked))
		} else {
			metricFollowerLag.Set(0)
		}
	}
}

// ackTracker is the rendezvous between follower ack streams and the
// commit barrier: it tracks, per stripe, the best ack across sessions
// and wakes every waiter on any advance or attach/detach.
type ackTracker struct {
	mu       sync.Mutex
	vec      []uint64
	attached int
	ch       chan struct{} // closed and replaced on every change
}

func (t *ackTracker) init(n int) {
	t.vec = make([]uint64, n)
	t.ch = make(chan struct{})
}

func (t *ackTracker) bumpLocked() {
	close(t.ch)
	t.ch = make(chan struct{})
}

func (t *ackTracker) attach(vec []uint64) {
	t.mu.Lock()
	t.attached++
	for i, seq := range vec {
		if i < len(t.vec) && seq > t.vec[i] {
			t.vec[i] = seq
		}
	}
	t.bumpLocked()
	t.mu.Unlock()
}

func (t *ackTracker) detach() {
	t.mu.Lock()
	t.attached--
	t.bumpLocked()
	t.mu.Unlock()
}

func (t *ackTracker) advance(stripe int, seq uint64) {
	t.mu.Lock()
	if seq > t.vec[stripe] {
		t.vec[stripe] = seq
		t.bumpLocked()
	}
	t.mu.Unlock()
}

func (t *ackTracker) snapshot() ([]uint64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint64(nil), t.vec...), t.attached
}

// wait blocks until a follower acks seq in the given stripe, no
// follower is attached (degraded pass), or the timeout lapses
// (ErrReplicationLag).
func (t *ackTracker) wait(stripe int, seq uint64, timeout time.Duration) error {
	var timer *time.Timer
	for {
		t.mu.Lock()
		if t.attached == 0 {
			t.mu.Unlock()
			metricDegradedCommits.Inc()
			return nil
		}
		if t.vec[stripe] >= seq {
			t.mu.Unlock()
			return nil
		}
		ch := t.ch
		t.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-timer.C:
			metricBarrierTimeouts.Inc()
			return store.ErrReplicationLag
		}
	}
}
