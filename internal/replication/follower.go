package replication

import (
	"bufio"
	"bytes"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"opinions/internal/resilience"
	"opinions/internal/storage"
	"opinions/internal/store"
)

// errRefused ends a session the leader refused because this follower
// holds records the leader lacks (see Leader.serveConn).
var errRefused = errors.New("replication: leader refused this follower: it holds records the leader lacks; wipe its -wal-dir to re-seed it")

// FollowerOptions configures the applying side.
type FollowerOptions struct {
	// Dial opens the connection to the leader; the default is a 5s TCP
	// dial. Tests substitute fault-injecting connections here.
	Dial func(addr string) (net.Conn, error)
	// Retry is the reconnect backoff schedule; only its Delay shape is
	// used (attempts reset whenever a session makes progress).
	Retry resilience.Policy
	// Breaker gates dial attempts so a dead leader is probed at the
	// breaker's cooldown pace instead of hammered; nil gets a default
	// sized for reconnects.
	Breaker *resilience.Breaker
	// FailoverAfter promotes this follower automatically once the leader
	// has been out of contact this long; 0 disables auto-promotion and
	// leaves only the explicit Promote path.
	FailoverAfter time.Duration
	// ReadTimeout bounds each message read and must exceed the leader's
	// heartbeat interval (default 5s).
	ReadTimeout time.Duration
	// OnPromote, when set, runs once at promotion — rspd uses it to
	// start serving replication itself.
	OnPromote func(reason string)
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

// Follower tails a leader and applies its commit stream through the
// local store, acking each durable sequence back. It keeps redialing
// until promoted or closed.
type Follower struct {
	st   *store.Store
	addr string
	opts FollowerOptions

	promoted    atomic.Bool
	connected   atomic.Bool
	leaderSeq   atomic.Uint64
	lastContact atomic.Int64 // unix nanos of the last leader message

	mu   sync.Mutex
	conn net.Conn

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartFollower begins tailing addr on a background goroutine. The
// store should be quiescent for local mutations (the HTTP layer's
// follower gate enforces that) so the sequence space stays a mirror of
// the leader's.
func StartFollower(st *store.Store, addr string, opts FollowerOptions) *Follower {
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 5 * time.Second
	}
	if opts.Breaker == nil {
		opts.Breaker = &resilience.Breaker{FailureThreshold: 3, Cooldown: opts.Retry.Delay(2)}
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	f := &Follower{st: st, addr: addr, opts: opts, quit: make(chan struct{})}
	f.lastContact.Store(time.Now().UnixNano())
	f.wg.Add(1)
	go f.run()
	return f
}

// Promoted reports whether this node has taken over as leader.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Connected reports whether a session to the leader is live: the
// leader accepted the handshake and its first message has arrived.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Lag is how many leader commits this follower has not yet applied.
func (f *Follower) Lag() uint64 {
	if ls, mine := f.leaderSeq.Load(), f.st.Seq(); ls > mine {
		return ls - mine
	}
	return 0
}

// CaughtUp reports whether this node can serve reads no staler than the
// leader's advertised state: promoted counts, so does a live session
// with zero lag. A follower that has never reached its leader is not
// caught up.
func (f *Follower) CaughtUp() bool {
	return f.promoted.Load() || (f.connected.Load() && f.Lag() == 0)
}

// Promote makes this node the leader: the tail loop stops, the
// follower gate (wired by rspd) opens for mutations, and OnPromote
// runs. Idempotent; reports whether this call performed the promotion.
func (f *Follower) Promote(reason string) bool {
	if !f.promoted.CompareAndSwap(false, true) {
		return false
	}
	metricPromotions.Inc()
	f.opts.Logger.Warn("replication: follower promoted to leader", "reason", reason, "seq", f.st.Seq())
	f.interrupt()
	if f.opts.OnPromote != nil {
		f.opts.OnPromote(reason)
	}
	return true
}

// Close stops tailing without promoting. Safe to call more than once.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.quit) })
	f.interrupt()
	f.wg.Wait()
	return nil
}

func (f *Follower) interrupt() {
	f.mu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
}

func (f *Follower) setConn(c net.Conn) {
	f.mu.Lock()
	f.conn = c
	f.mu.Unlock()
}

func (f *Follower) stopping() bool {
	select {
	case <-f.quit:
		return true
	default:
		return f.promoted.Load()
	}
}

// run is the reconnect loop: dial through the breaker, tail until the
// session errors, check the auto-promotion deadline, back off, repeat.
func (f *Follower) run() {
	defer f.wg.Done()
	attempt := 0
	for !f.stopping() {
		if err := f.opts.Breaker.Allow(); err != nil {
			f.checkFailover()
			if !f.sleep(f.opts.Retry.Delay(attempt)) {
				return
			}
			continue
		}
		progressed, err := f.session()
		f.opts.Breaker.Observe(err)
		if f.stopping() {
			return
		}
		if progressed {
			attempt = 0
		}
		if err != nil {
			metricReconnects.Inc()
			f.opts.Logger.Info("replication: session ended; will redial",
				"leader", f.addr, "err", err, "seq", f.st.Seq())
		}
		f.checkFailover()
		if !f.sleep(f.opts.Retry.Delay(attempt)) {
			return
		}
		attempt++
	}
}

func (f *Follower) checkFailover() {
	if f.opts.FailoverAfter <= 0 || f.promoted.Load() {
		return
	}
	silent := time.Since(time.Unix(0, f.lastContact.Load()))
	if silent >= f.opts.FailoverAfter {
		f.Promote("leader unreachable past failover deadline")
	}
}

// sleep waits d unless the follower is stopped first; reports whether
// the loop should continue.
func (f *Follower) sleep(d time.Duration) bool {
	if d <= 0 {
		return !f.stopping()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.quit:
		return false
	case <-t.C:
		return !f.stopping()
	}
}

func (f *Follower) touch() {
	f.lastContact.Store(time.Now().UnixNano())
}

// session runs one connection's lifetime: handshake with the local
// durable sequence, then apply every message and ack the new durable
// sequence. Returns whether any message was processed (resets backoff)
// and the error that ended the session.
func (f *Follower) session() (bool, error) {
	conn, err := f.opts.Dial(f.addr)
	if err != nil {
		return false, err
	}
	f.setConn(conn)
	defer f.setConn(nil)
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := writeHandshake(conn, f.st.SeqVector()); err != nil {
		return false, err
	}
	conn.SetWriteDeadline(time.Time{})
	defer f.connected.Store(false)

	br := bufio.NewReaderSize(conn, 1<<16)
	progressed := false
	for !f.stopping() {
		conn.SetReadDeadline(time.Now().Add(f.opts.ReadTimeout))
		msg, err := readMessage(br)
		if err != nil {
			return progressed, err
		}
		// A refusal is leader contact too: a live leader that keeps
		// refusing must not look like an outage to checkFailover.
		f.touch()
		if msg.kind == msgRefusal {
			return progressed, errRefused
		}
		progressed = true
		switch msg.kind {
		case msgFrame:
			if err := f.st.CommitReplicated(int(msg.stripe), msg.seq, msg.payload); err != nil {
				return progressed, err
			}
			metricApplied.Inc()
		case msgSnapshot:
			snap, err := storage.Read(bytes.NewReader(msg.payload))
			if err != nil {
				return progressed, err
			}
			if err := f.st.Restore(snap); err != nil {
				return progressed, err
			}
			metricSnapshotsLoaded.Inc()
			f.opts.Logger.Info("replication: seeded from leader snapshot", "seq", msg.seq)
		case msgHeartbeat:
			// Nothing to apply; the acks below double as our keepalive.
		}
		// Frames carry per-stripe sequences, not totals; only snapshots
		// and heartbeats advertise how far the leader is overall. Our own
		// total is a lower bound on the leader's in between.
		if msg.kind != msgFrame && msg.seq > f.leaderSeq.Load() {
			f.leaderSeq.Store(msg.seq)
		}
		if mine := f.st.Seq(); mine > f.leaderSeq.Load() {
			f.leaderSeq.Store(mine)
		}
		// Only now is the leader's total from this session known (the
		// leader opens every session with a heartbeat), so only now may
		// CaughtUp compare against it.
		f.connected.Store(true)
		metricApplyLag.Set(int64(f.Lag()))
		// A frame moved only its own stripe; a snapshot or heartbeat is
		// acked with the full vector.
		vec := f.st.SeqVector()
		if msg.kind == msgFrame {
			if err := writeAck(conn, msg.stripe, vec[msg.stripe]); err != nil {
				return progressed, err
			}
		} else {
			for i, seq := range vec {
				if err := writeAck(conn, uint32(i), seq); err != nil {
					return progressed, err
				}
			}
		}
	}
	return progressed, nil
}
