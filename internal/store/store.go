// Package store is the RSP's durable state layer: every server
// mutation — an accepted upload, a posted review, a training pair, a
// retrain, a fraud sweep — is one Record committed through Store.Commit,
// which applies it to the in-memory striped stores, appends it to an
// append-only checksummed write-ahead log, and acknowledges only after
// a group-commit fsync.
//
// The commit pipeline is sharded: each record routes to a commit
// stripe by its entity key (the same FNV-1a hash the read stores
// stripe on), and every stripe owns its own WAL segment family, its
// own sequence space, and its own group-commit syncer — commits to
// different stripes never contend on a lock or an fsync. Every record
// lives in exactly one lane: a fraud sweep commits one record per
// affected entity, routed like that entity's uploads, and a retrain
// routes to stripe 0 with the training pairs it reads. Since history
// IDs stay bound to their entity after a sweep, no record's outcome
// depends on how the lanes interleave, so recovery replays the stripes
// in parallel and exactly. Background compaction folds the per-stripe
// logs into a storage.Snapshot, which carries the per-stripe sequence
// vector; recovery loads the snapshot, replays every stripe past its
// folded sequence, and repairs torn tails per stripe, so an unclean
// kill loses nothing that was acknowledged and duplicates nothing that
// was not.
//
// Reads never touch any commit lock: the underlying stores are sharded
// by entity key (internal/stripe), so search-time aggregation over one
// entity proceeds while uploads land on others.
//
// The log is exactly as privacy-sensitive as a snapshot: records carry
// anonymous history IDs, entity keys, and client-drawn idempotency
// keys — never a user identity (see DESIGN.md "Durability").
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"opinions/internal/aggregate"
	"opinions/internal/history"
	"opinions/internal/inference"
	"opinions/internal/reviews"
	"opinions/internal/simclock"
	"opinions/internal/storage"
	"opinions/internal/stripe"
)

// ErrUnavailable is returned by Commit once the write-ahead log has
// failed (or the store is closed): durability can no longer be
// promised, so mutations are refused until a restart recovers from
// disk. The HTTP layer maps it to 503, which clients absorb by
// spooling and retrying — the same path as any other outage.
var ErrUnavailable = errors.New("store: durability unavailable; mutations refused until restart")

// DefaultCompactEvery is the auto-compaction trigger when Options
// leave it zero: fold the WALs into a snapshot every this many records.
const DefaultCompactEvery = 4096

// snapshotFile is the snapshot's name inside the WAL directory.
const snapshotFile = "snapshot"

// legacySnapshotFile is where releases before snapshot format v5 kept
// their gzip-JSON snapshot.
const legacySnapshotFile = "snapshot.gz"

// Options configures a Store. The commit pipeline always runs
// stripe.NumShards lanes, one per read stripe, and the exactly-once
// ledger always holds DefaultDedupCapacity keys.
type Options struct {
	// Dir is the durability directory (snapshot + WAL segments). Empty
	// runs the store memory-only: same commit interface, no log, and
	// nothing to replicate.
	Dir string
	// Clock stamps snapshots; defaults to the real clock.
	Clock simclock.Clock
	// CompactEvery triggers background compaction after this many
	// committed records (default DefaultCompactEvery; negative disables
	// auto-compaction — explicit Compact calls still work).
	CompactEvery int
	// NoSync skips fsync on the logs (benchmarks and tests that measure
	// everything but the disk). Group commit still flushes the buffers.
	NoSync bool
	// OpenFile, when non-nil, creates WAL segment files — the fault
	// injection seam for torn-write and crash-mid-append tests.
	OpenFile func(path string) (File, error)
	// Logger receives recovery and compaction events; nil = slog default.
	Logger *slog.Logger
}

// lane is one commit stripe: a mutex serializing apply+append for the
// records routed here, the stripe's own sequence space, and its own
// group-committed log. Commits on different lanes run concurrently end
// to end — including their fsyncs.
type lane struct {
	mu sync.Mutex
	// seq is written only under mu; the atomic lets Seq()/SeqVector()
	// read without touching the commit path.
	seq atomic.Uint64
	log *walLog // nil when memory-only
	met *laneMetrics
}

// lock acquires the lane, surfacing cross-committer contention on the
// commit_stripe_contention gauge.
func (ln *lane) lock() {
	if ln.mu.TryLock() {
		return
	}
	metricStripeContention.Add(1)
	ln.mu.Lock()
	metricStripeContention.Add(-1)
}

// Store owns the server state and its durability. Construct with Open;
// all mutations go through Commit.
type Store struct {
	clock        simclock.Clock
	logger       *slog.Logger
	dir          string
	snapPath     string
	compactEvery int

	state *state

	// lanes are the commit stripes. Multi-lane operations (snapshot
	// cuts, subscriptions, compaction, restore, close) always acquire
	// lane locks in ascending index order.
	lanes []*lane

	sinceCompact atomic.Int64
	closed       atomic.Bool // set while holding every lane lock
	failed       atomic.Bool

	// Replication surface (export.go). base is, per stripe, the oldest
	// sequence still guaranteed on disk as frames; subs fan the live
	// commit stream out; barrier, when installed, gates commit acks on
	// follower progress.
	baseMu  sync.Mutex
	base    []uint64
	subMu   sync.Mutex
	subs    map[*FrameSub]struct{}
	nsubs   atomic.Int32
	barrier atomic.Pointer[barrierFunc]

	compactMu  sync.Mutex  // serializes compactions and restores
	compacting atomic.Bool // single-flight latch for background compaction
	wg         sync.WaitGroup

	// onCommit, when set, observes every record applied through this
	// store (see SetCommitHook).
	onCommit atomic.Pointer[func(*Record)]

	// onRestore, when set, observes every successful snapshot restore
	// (see SetRestoreHook).
	onRestore atomic.Pointer[func()]
}

// SetCommitHook registers fn to observe every record applied through
// this store — local and replicated commits alike. The hook runs after
// the record is applied to memory, while the commit lane lock is still
// held, so per-entity invalidation is ordered exactly against that
// entity's commit order; fn must be fast and must not call back into
// the store. One hook is supported (the read-cache layer); recovery
// replay at Open precedes any registration and is not observed.
// Passing nil removes the hook.
func (s *Store) SetCommitHook(fn func(*Record)) {
	if fn == nil {
		s.onCommit.Store(nil)
		return
	}
	s.onCommit.Store(&fn)
}

// notifyCommit invokes the commit hook, if any, for an applied record.
func (s *Store) notifyCommit(rec *Record) {
	if fn := s.onCommit.Load(); fn != nil {
		(*fn)(rec)
	}
}

// SetRestoreHook registers fn to observe every successful Restore,
// whoever the caller is — the admin snapshot-load path and a
// replication follower seeding from a leader snapshot alike. The hook
// runs after the restored state is installed in memory, while every
// lane lock is still held, so no commit can interleave between the
// timeline jump and the notification; like the commit hook it must be
// fast and must not call back into the store. One hook is supported
// (the read-cache layer flushes, since per-entity invalidation cannot
// bound what a restore changed). Passing nil removes the hook.
func (s *Store) SetRestoreHook(fn func()) {
	if fn == nil {
		s.onRestore.Store(nil)
		return
	}
	s.onRestore.Store(&fn)
}

// notifyRestore invokes the restore hook, if any.
func (s *Store) notifyRestore() {
	if fn := s.onRestore.Load(); fn != nil {
		(*fn)()
	}
}

// lockAll acquires every lane in ascending order — the one global lock
// order that keeps snapshot cuts and parallel commits deadlock-free.
func (s *Store) lockAll() {
	for _, ln := range s.lanes {
		ln.lock()
	}
}

func (s *Store) unlockAll() {
	for _, ln := range s.lanes {
		ln.mu.Unlock()
	}
}

// Open builds a store. With a Dir it recovers on the spot: load the
// snapshot if present, replay every stripe's WAL segments past it in
// parallel, and start a fresh active segment per stripe. Torn tails
// are repaired per stripe; a torn or corrupt record anywhere but a
// tail is an error — that is not a crash artifact but lost data.
func Open(opts Options) (*Store, error) {
	clock := opts.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	compactEvery := opts.CompactEvery
	if compactEvery == 0 {
		compactEvery = DefaultCompactEvery
	}
	if compactEvery < 0 {
		compactEvery = 0
	}
	s := &Store{
		clock:        clock,
		logger:       logger,
		dir:          opts.Dir,
		compactEvery: compactEvery,
		state:        newState(),
		lanes:        make([]*lane, stripe.NumShards),
	}
	for i := range s.lanes {
		s.lanes[i] = &lane{}
	}
	if opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating WAL dir: %w", err)
	}
	s.snapPath = filepath.Join(opts.Dir, snapshotFile)
	if err := prepareDir(opts.Dir, logger); err != nil {
		return nil, err
	}
	// Baselines: where each stripe's on-disk frames chain from (zero
	// without a snapshot).
	nstripes := len(s.lanes)
	base := make([]uint64, nstripes)
	if _, err := os.Stat(s.snapPath); err == nil {
		snap, err := storage.LoadFile(s.snapPath)
		if err != nil {
			return nil, fmt.Errorf("store: loading snapshot: %w", err)
		}
		if err := checkWidth(snap.WALSeqs); err != nil {
			return nil, fmt.Errorf("%w; refusing to start from %s", err, s.snapPath)
		}
		if err := s.state.restore(snap); err != nil {
			return nil, err
		}
		copy(base, snap.WALSeqs)
	}

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	striped := make([][]segmentInfo, nstripes)
	for _, seg := range segs {
		if seg.stripe >= nstripes {
			return nil, fmt.Errorf("store: %s is a WAL segment for stripe %d, written at a width of at least %d commit stripes, but this build runs %d; refusing to start without the records it holds",
				seg.path, seg.stripe, seg.stripe+1, nstripes)
		}
		striped[seg.stripe] = append(striped[seg.stripe], seg)
	}

	// Each stripe's records apply in its own log order, concurrently
	// with the other stripes: routing pins an entity to one stripe, and
	// since history IDs never re-bind to another entity, no record's
	// outcome depends on how the stripes interleave.
	end := make([]uint64, nstripes)
	maxGens := make([]int, nstripes)
	errs := make([]error, nstripes)
	var wg sync.WaitGroup
	for i := 0; i < nstripes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			end[i], maxGens[i], errs[i] = s.replayLane(i, striped[i], base[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	var replayed uint64
	for i, ln := range s.lanes {
		replayed += end[i] - base[i]
		ln.met = newLaneMetrics(i)
		l, err := newWalLog(opts.Dir, i, maxGens[i]+1, opts.OpenFile, opts.NoSync, ln.met)
		if err != nil {
			return nil, err
		}
		ln.log = l
		ln.seq.Store(end[i])
		ln.met.segmentBytes.Set(int64(len(segMagic)))
	}
	s.setBase(base)
	metricWALReplayed.Add(replayed)
	if replayed > 0 || len(segs) > 0 {
		logger.Info("wal: recovered", "dir", opts.Dir, "seq", s.Seq(),
			"stripes", nstripes, "replayed", replayed, "segments", len(segs))
	}
	return s, nil
}

// checkWidth refuses a snapshot sequence vector that does not span
// stripe.NumShards commit stripes. Every release has run exactly that
// many lanes, so another length is not a state this build can map onto
// its own.
func checkWidth(vec []uint64) error {
	if len(vec) != stripe.NumShards {
		return fmt.Errorf("store: snapshot sequence vector spans %d commit stripes, but this build runs %d", len(vec), stripe.NumShards)
	}
	return nil
}

// prepareDir readies a WAL directory for recovery. It refuses a
// directory holding state in a format this build no longer reads —
// starting without it would silently drop records that were
// acknowledged — and removes the temp files of snapshot saves a crash
// cut short, which nothing else would ever delete.
func prepareDir(dir string, logger *slog.Logger) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: listing WAL dir: %w", err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		var gen int
		if e.Name() == legacySnapshotFile {
			return fmt.Errorf("store: %s is a gzip-JSON snapshot from before format v%d, which this build cannot read; refusing to start without the state it holds", path, storage.FormatVersion)
		}
		if n, err := fmt.Sscanf(e.Name(), "wal-%d.log", &gen); err == nil && n == 1 {
			return fmt.Errorf("store: %s is a pre-sharding WAL segment, which this build cannot replay; refusing to start without the records it holds", path)
		}
	}
	removed, err := storage.RemoveTemps(dir)
	for _, path := range removed {
		logger.Warn("wal: removed leftover snapshot temp file", "file", path)
	}
	return err
}

// repairTorn applies the single-stream torn-segment rules to one
// segment: a headerless artifact is removed in any position, a torn
// final record is truncated away, and a torn record mid-log is an
// error — that is lost data, not a crash artifact.
func repairTorn(seg segmentInfo, validLen int64, final bool, logger *slog.Logger) error {
	if validLen <= int64(len(segMagic)) {
		// A segment with no intact frame: the process died between
		// creating the file and flushing its header or first frame.
		// Nothing acknowledged can live here — acks follow a full-frame
		// fsync — so this is a crash artifact in any position, not lost
		// data. Remove it rather than truncate: left behind (even at
		// zero bytes), the next recovery would see a non-final torn
		// segment and refuse to start. If an fsynced frame really did
		// vanish from disk here, the sequence-gap check still refuses on
		// the next segment.
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("store: removing headerless WAL segment: %w", err)
		}
		metricWALTornTails.Inc()
		logger.Warn("wal: removed headerless segment", "segment", seg.path)
		return nil
	}
	if !final {
		return fmt.Errorf("store: corrupt WAL record mid-log in %s", seg.path)
	}
	// The crash artifact: a record half-written when the process died.
	// It was never acknowledged (acks follow fsync of the full frame),
	// so discarding it loses nothing.
	if err := os.Truncate(seg.path, validLen); err != nil {
		return fmt.Errorf("store: repairing torn WAL tail: %w", err)
	}
	metricWALTornTails.Inc()
	logger.Warn("wal: truncated torn tail", "segment", seg.path, "valid_bytes", validLen)
	return nil
}

// replayLane recovers one stripe: it applies every intact frame past
// base in log order, enforcing contiguity and repairing torn tails per
// the single-stream rules, and returns the stripe's last sequence and
// its newest segment generation.
func (s *Store) replayLane(laneIdx int, segs []segmentInfo, base uint64) (uint64, int, error) {
	last, maxGen := base, 0
	for i, seg := range segs {
		maxGen = max(maxGen, seg.gen)
		validLen, torn, err := replaySegment(seg.path, func(seq uint64, payload []byte) error {
			if seq <= base {
				return nil // already folded into the snapshot
			}
			if seq != last+1 {
				return fmt.Errorf("store: WAL gap in %s: record %d follows %d", seg.path, seq, last)
			}
			var frame struct {
				Record
				// StripeSeqs marks a cross-stripe barrier record, copied
				// into every stripe by builds before each record lived in
				// one lane. Applying each copy would apply it once per
				// stripe, so recovery refuses it.
				StripeSeqs []uint64 `json:"stripe_seqs"`
			}
			if err := json.Unmarshal(payload, &frame); err != nil {
				return fmt.Errorf("store: decoding WAL record %d in %s: %w", seq, seg.path, err)
			}
			if frame.StripeSeqs != nil {
				return fmt.Errorf("store: WAL record %d in %s is a cross-stripe barrier record from an earlier build, which this build cannot replay; open the directory with that build and compact it first", seq, seg.path)
			}
			rec := &frame.Record
			rec.Seq = seq
			if err := s.state.apply(rec); err != nil {
				return fmt.Errorf("store: replaying WAL record %d (stripe %d): %w", seq, laneIdx, err)
			}
			last = seq
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		if torn {
			if err := repairTorn(seg, validLen, i == len(segs)-1, s.logger); err != nil {
				return 0, 0, err
			}
		}
	}
	return last, maxGen, nil
}

// route maps a record to its commit stripe. Uploads, sweeps and
// reviews route by entity key through stripe.Index, so commit lane i
// serializes exactly the entities of read stripe i and one entity's
// mutation order is total within its stripe.
// Training pairs and retrains share stripe 0: a retrain reads only the
// pairs, and its floating-point accumulation is sensitive to their
// order, so one stripe fixes exactly which pairs, in which order, each
// retrain sees, across live commits and parallel replay.
func (s *Store) route(rec *Record) int {
	switch rec.Kind {
	case KindReview:
		if rec.Review != nil {
			return stripe.Index(rec.Review.Entity)
		}
		return 0
	case KindTrainPair, KindRetrain:
		return 0
	default:
		return stripe.Index(rec.Entity)
	}
}

// Commit applies one record and makes it durable. The record is
// marshaled outside any lock and committed on its stripe's lane (see
// commitLane) — commits on other stripes proceed in parallel
// throughout. An apply error leaves the log untouched; a log error
// marks the store failed — memory may then be ahead of disk, so every
// later Commit refuses with ErrUnavailable until a restart re-derives
// state from disk.
func (s *Store) Commit(rec *Record) error {
	if s.failed.Load() {
		metricStoreUnavailable.Inc()
		return ErrUnavailable
	}
	// Review IDs are assigned before the record is marshaled so the
	// logged payload carries the ID the caller was acknowledged with —
	// parallel replay cannot re-derive a global assignment order.
	if rec.Kind == KindReview && rec.Review != nil && rec.Review.ID == "" {
		rec.Review.ID = s.state.reviews.NextID()
	}
	idx := s.route(rec)
	var payload []byte
	if s.lanes[idx].log != nil {
		var err error
		payload, err = json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: encoding record: %w", err)
		}
	}
	return s.commitLane(idx, 0, rec, payload)
}

// commitLane commits one record on lane idx: under the
// lane lock, apply it to memory, append it to the stripe's log and
// publish it; then wait outside the lock for the group fsync that
// covers it, kick compaction, and run the replication barrier. at is
// the sequence a leader assigned the frame (CommitReplicated), judged
// by FramePosition — a frame already held is a silent no-op, one past
// a gap is ErrReplicationGap; zero takes the lane's next sequence
// (Commit). A log error latches the store failed.
func (s *Store) commitLane(idx int, at uint64, rec *Record, payload []byte) error {
	ln := s.lanes[idx]
	ln.lock()
	if s.closed.Load() {
		ln.mu.Unlock()
		metricStoreUnavailable.Inc()
		return ErrUnavailable
	}
	cur := ln.seq.Load()
	if at != 0 {
		if pos := FramePosition([]uint64{cur}, []uint64{at}); pos != FrameNext {
			ln.mu.Unlock()
			if pos == FrameGap {
				return fmt.Errorf("%w (stripe %d: have %d, got %d)", ErrReplicationGap, idx, cur, at)
			}
			return nil
		}
	}
	rec.Seq = cur + 1
	if err := s.state.apply(rec); err != nil {
		ln.mu.Unlock()
		return err
	}
	ln.seq.Store(rec.Seq)
	s.notifyCommit(rec)
	var b *walBatch
	if ln.log != nil {
		var size int64
		var err error
		b, size, err = ln.log.append(rec.Seq, payload)
		if err != nil {
			ln.mu.Unlock()
			s.fail("append", err)
			return fmt.Errorf("%w (appending record %d: %v)", ErrUnavailable, rec.Seq, err)
		}
		ln.met.appends.Inc()
		ln.met.appendBytes.Add(uint64(frameHeaderLen + len(payload)))
		ln.met.segmentBytes.Set(size)
		s.publish(Frame{Stripe: idx, Seq: rec.Seq, Payload: payload})
	}
	ln.mu.Unlock()
	metricStoreCommits.With(string(rec.Kind)).Inc()
	if at != 0 {
		metricStoreReplicated.Inc()
	}
	if b != nil {
		if err := b.wait(); err != nil {
			s.fail("fsync", err)
			return fmt.Errorf("%w (syncing record %d: %v)", ErrUnavailable, rec.Seq, err)
		}
		s.compactDue()
	}
	// With a replication barrier installed (semi-sync leader, or a
	// promoted follower leading a chain), hold the ack until a follower
	// has the record too; on timeout the commit stays locally durable
	// and the caller sees ErrReplicationLag.
	return s.AckBarrier(idx, rec.Seq)
}

// compactDue counts one logged record toward auto-compaction and kicks
// a background compaction once CompactEvery records have accumulated.
func (s *Store) compactDue() {
	if s.compactEvery > 0 && s.sinceCompact.Add(1) >= int64(s.compactEvery) {
		s.maybeCompact()
	}
}

// fail latches the store unavailable after a durability error.
func (s *Store) fail(op string, err error) {
	if s.failed.CompareAndSwap(false, true) {
		s.logger.Error("store: WAL failed; refusing further mutations", "op", op, "err", err)
	}
}

// Failed reports whether the store has latched unavailable.
func (s *Store) Failed() bool { return s.failed.Load() }

// Seq returns the total number of sequence slots consumed across all
// commit stripes — the sum of the per-stripe sequences; each record
// consumes one slot. Per-stripe components are monotone, so the sum
// is monotone, and two stores that have applied the same commits
// report the same total — which is what replication lag and failover
// checks compare.
func (s *Store) Seq() uint64 {
	var sum uint64
	for _, ln := range s.lanes {
		sum += ln.seq.Load()
	}
	return sum
}

// SeqVector returns the per-stripe sequence vector. Each lane's value
// is read atomically; for a cut consistent across stripes, hold every
// lane (as snapshots and subscriptions do) or quiesce
// commits first (followers are quiescent by construction).
func (s *Store) SeqVector() []uint64 {
	out := make([]uint64, len(s.lanes))
	for i, ln := range s.lanes {
		out[i] = ln.seq.Load()
	}
	return out
}

// NumStripes returns the commit-stripe count.
func (s *Store) NumStripes() int { return len(s.lanes) }

// Reviews returns the explicit-review store (striped; read freely).
func (s *Store) Reviews() *reviews.Store { return s.state.reviews }

// Opinions returns the inferred-opinion store (striped; read freely).
func (s *Store) Opinions() *aggregate.OpinionStore { return s.state.opinions }

// Histories returns the anonymous history store (striped; read freely).
func (s *Store) Histories() *history.ServerStore { return s.state.histories }

// Ledger returns the exactly-once upload ledger.
func (s *Store) Ledger() *Ledger { return s.state.ledger }

// Models returns the current model set, or nil.
func (s *Store) Models() *inference.ModelSet {
	s.state.trainMu.RLock()
	defer s.state.trainMu.RUnlock()
	return s.state.models
}

// TrainingPairs reports how many volunteered examples are stored.
func (s *Store) TrainingPairs() int {
	s.state.trainMu.RLock()
	defer s.state.trainMu.RUnlock()
	return len(s.state.trainX)
}

// Snapshot captures the full state plus the per-stripe sequence vector
// it reflects. It holds every lane during the in-memory copy so the
// cut is consistent with WALSeqs — a record's effects are in the
// snapshot if and only if the vector covers its sequence; callers
// encode it (storage.Write/SaveFile) outside any lock.
func (s *Store) Snapshot() *storage.Snapshot {
	s.lockAll()
	snap := s.state.dump(s.clock.Now())
	snap.WALSeqs = s.SeqVector()
	s.unlockAll()
	return snap
}

// Restore replaces the state with the snapshot's contents. snap
// belongs to the store afterwards — its histories are adopted, not
// copied — so the caller hands over a freshly decoded or freshly taken
// snapshot and does not use it again. The sequence spaces are never
// rewound: each lane adopts the larger of
// the snapshot's sequence and its own, and snap's WALSeqs is updated
// to match before it is persisted, so records still on disk from
// before the restore can never alias post-restore commits — a crash
// that lands between the snapshot install and the old segments'
// removal replays the stale segments as already-folded no-ops instead
// of splicing pre-restore records into the restored state.
//
// Unlike Compact, every lane is held across the disk write: Restore is
// a rare administrative operation, and the locks are what guarantee no
// commit is acknowledged onto the new timeline before the snapshot
// describing that timeline is durably on disk. If persisting fails,
// the store latches unavailable — memory (restored) and disk
// (pre-restore) disagree, and only a restart re-derives a consistent
// state.
func (s *Store) Restore(snap *storage.Snapshot) error {
	if snap == nil {
		return errors.New("store: nil snapshot")
	}
	if err := checkWidth(snap.WALSeqs); err != nil {
		return err
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	if s.closed.Load() || s.failed.Load() {
		return ErrUnavailable
	}
	hasLog := s.lanes[0].log != nil
	var olds []segmentInfo
	if hasLog {
		var err error
		olds, err = listSegments(s.dir)
		if err != nil {
			return err
		}
	}
	if err := s.state.restore(snap); err != nil {
		return err
	}
	for i, ln := range s.lanes {
		if snap.WALSeqs[i] > ln.seq.Load() {
			ln.seq.Store(snap.WALSeqs[i])
		}
	}
	snap.WALSeqs = s.SeqVector()
	s.sinceCompact.Store(0)
	if !hasLog {
		s.notifyRestore()
		return nil
	}
	if err := s.rotateAll(); err != nil {
		return err
	}
	if err := storage.SaveFile(s.snapPath, snap); err != nil {
		s.fail("restore", err)
		return fmt.Errorf("%w (persisting restored snapshot: %v)", ErrUnavailable, err)
	}
	for _, seg := range olds {
		_ = os.Remove(seg.path)
	}
	s.setBase(snap.WALSeqs)
	// The state jumped timelines; live subscribers must re-seed from the
	// new snapshot rather than splice frames across the jump.
	s.dropSubs(true)
	s.notifyRestore()
	return nil
}

// Compact folds everything committed so far into the snapshot file and
// discards the log segments it supersedes. The lanes are held only for
// the in-memory cut and the per-stripe segment rotations;
// serialization, the disk write, and segment removal run outside them,
// so a slow disk never stalls uploads. Old segments are removed only
// after the new snapshot is durably installed — a crash mid-compaction
// recovers from the old snapshot plus the old segments.
func (s *Store) Compact() error {
	if s.lanes[0].log == nil {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.lockAll()
	if s.closed.Load() {
		s.unlockAll()
		return ErrUnavailable
	}
	snap := s.state.dump(s.clock.Now())
	snap.WALSeqs = s.SeqVector()
	s.sinceCompact.Store(0)
	olds, err := listSegments(s.dir)
	if err == nil {
		err = s.rotateAll()
	}
	s.unlockAll()
	if err != nil {
		return err
	}

	if err := storage.SaveFile(s.snapPath, snap); err != nil {
		return err
	}
	for _, seg := range olds {
		_ = os.Remove(seg.path)
	}
	s.setBase(snap.WALSeqs)
	metricWALCompactions.Inc()
	s.logger.Info("wal: compacted", "seq", slices.Max(snap.WALSeqs), "segments_folded", len(olds))
	return nil
}

// rotateAll starts a fresh segment in every lane; the caller holds
// every lane. A failure latches the store: the lanes are left half
// rotated, and only a restart re-derives a consistent log.
func (s *Store) rotateAll() error {
	for _, ln := range s.lanes {
		if err := ln.log.rotate(); err != nil {
			s.fail("rotate", err)
			return fmt.Errorf("%w (rotating WAL: %v)", ErrUnavailable, err)
		}
		ln.met.segmentBytes.Set(int64(len(segMagic)))
	}
	return nil
}

// maybeCompact starts a background compaction unless one is running.
func (s *Store) maybeCompact() {
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.compacting.Store(false)
		// ErrUnavailable here is either a rotate failure (fail already
		// logged the root cause) or a close racing the trigger (benign:
		// the shutdown path compacts explicitly).
		if err := s.Compact(); err != nil && !errors.Is(err, ErrUnavailable) {
			s.logger.Error("store: background compaction failed", "err", err)
		}
	}()
}

// Close refuses further commits, waits for background compaction, and
// closes every lane's log. It does not compact; callers wanting a
// final fold (cmd/rspd shutdown) call Compact first.
func (s *Store) Close() error {
	s.lockAll()
	if s.closed.Load() {
		s.unlockAll()
		return nil
	}
	s.closed.Store(true)
	s.unlockAll()
	s.dropSubs(false)
	s.wg.Wait()
	var first error
	for _, ln := range s.lanes {
		if ln.log != nil {
			if err := ln.log.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
