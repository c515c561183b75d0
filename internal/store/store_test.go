package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/obs"

	"opinions/internal/faultinject"
	"opinions/internal/interaction"
	"opinions/internal/reviews"
	"opinions/internal/simclock"
	"opinions/internal/stripe"
)

// uploadRec builds a KindUpload record: one visit plus an inferred
// rating for entity, under anonymous id, keyed for exactly-once.
func uploadRec(id, entity string, rating float64, key string) *Record {
	v := interaction.Record{
		Entity:   entity,
		Kind:     interaction.VisitKind,
		Start:    simclock.Epoch,
		Duration: 30 * time.Minute,
	}
	r := rating
	return &Record{Kind: KindUpload, AnonID: id, Entity: entity, Visit: &v, Rating: &r, Key: key}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = simclock.NewSim(simclock.Epoch)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func equalSeqs(a, b []uint64) bool { return slices.Equal(a, b) }

// commitNVec is the sequence vector a fresh store holds after
// commitN(n): each record counts in its entity's lane.
func commitNVec(n int) []uint64 {
	v := make([]uint64, stripe.NumShards)
	for i := 0; i < n; i++ {
		v[stripe.Index(fmt.Sprintf("ent/%d", i%3))]++
	}
	return v
}

// framesBetween lists the frame positions strictly above from and up
// to to, stripe by stripe and in sequence order within a stripe — the
// order ExportFrames delivers them in.
func framesBetween(from, to []uint64) []Frame {
	var out []Frame
	for i := range to {
		for seq := from[i] + 1; seq <= to[i]; seq++ {
			out = append(out, Frame{Stripe: i, Seq: seq})
		}
	}
	return out
}

// samePosition compares frames by stripe and sequence, not payload.
func samePosition(a, b Frame) bool { return a.Stripe == b.Stripe && a.Seq == b.Seq }

// sumStripeCounter totals a per-stripe counter family over n stripes.
func sumStripeCounter(v interface {
	With(values ...string) *obs.Counter
}, n int) uint64 {
	var sum uint64
	for i := 0; i < n; i++ {
		sum += v.With(strconv.Itoa(i)).Value()
	}
	return sum
}

func commitN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := uploadRec(fmt.Sprintf("anon-%d", i), fmt.Sprintf("ent/%d", i%3), 4.0, fmt.Sprintf("key-%d", i))
		if err := s.Commit(rec); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

func TestMemoryOnlyCommit(t *testing.T) {
	s := mustOpen(t, Options{})
	commitN(t, s, 3)
	if got := s.Seq(); got != 3 {
		t.Fatalf("seq = %d, want 3", got)
	}
	if got := s.Histories().Stats().Records; got != 3 {
		t.Fatalf("records = %d, want 3", got)
	}
	if !s.Ledger().Contains("key-1") {
		t.Fatal("committed key not in ledger")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("memory-only Compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRecoveryReplaysLog drives every record kind through Commit, kills
// the store cleanly, and reopens: replay alone (no compaction ran) must
// reconstruct the histories, reviews, training set, model, and ledger.
func TestRecoveryReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	commitN(t, s, 5)

	rev := &Record{Kind: KindReview, Review: &reviews.Review{
		Entity: "ent/0", Author: "alice", Rating: 4.5, Text: "great", Time: simclock.Epoch,
	}}
	if err := s.Commit(rev); err != nil {
		t.Fatalf("review commit: %v", err)
	}
	posted, ok := rev.Result().(reviews.Review)
	if !ok || posted.ID == "" {
		t.Fatalf("review result = %#v", rev.Result())
	}

	for i := 0; i < 4; i++ {
		pair := &Record{Kind: KindTrainPair,
			Features: []float64{float64(i), float64(i % 2)}, TrainRating: 3 + float64(i)/4, Category: "restaurant"}
		if err := s.Commit(pair); err != nil {
			t.Fatalf("train pair: %v", err)
		}
	}
	if err := s.Commit(&Record{Kind: KindRetrain}); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if s.Models() == nil {
		t.Fatal("no model after retrain")
	}
	if err := s.Commit(&Record{Kind: KindSweep, Entity: "ent/0", Dropped: []string{"anon-0"}}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	wantSeq := s.Seq()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Seq(); got != wantSeq {
		t.Fatalf("recovered seq = %d, want %d", got, wantSeq)
	}
	if got := r.Histories().Stats().Records; got != 4 { // 5 uploads - 1 swept
		t.Fatalf("recovered records = %d, want 4", got)
	}
	got := r.Reviews().ForEntity("ent/0", 0, 10)
	if len(got) != 1 || got[0].ID != posted.ID || got[0].Author != "alice" {
		t.Fatalf("recovered reviews = %+v, want ID %s", got, posted.ID)
	}
	if r.TrainingPairs() != 4 {
		t.Fatalf("recovered pairs = %d, want 4", r.TrainingPairs())
	}
	if r.Models() == nil {
		t.Fatal("retrain did not replay")
	}
	for i := 1; i < 5; i++ {
		if !r.Ledger().Contains(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("ledger lost key-%d across restart", i)
		}
	}
}

// TestRecoveryAfterCompaction: state folded into the snapshot plus a
// log tail written after the fold must both survive a reopen.
func TestRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	commitN(t, s, 10)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != s.NumStripes() {
		t.Fatalf("%d segments after compaction, want %d (one fresh active per stripe)", len(segs), s.NumStripes())
	}
	for i := 0; i < 3; i++ {
		rec := uploadRec(fmt.Sprintf("tail-%d", i), "ent/9", 2.0, fmt.Sprintf("tail-key-%d", i))
		if err := s.Commit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Seq(); got != 13 {
		t.Fatalf("seq = %d, want 13", got)
	}
	if got := r.Histories().Stats().Records; got != 13 {
		t.Fatalf("records = %d, want 13", got)
	}
}

// TestAutoCompaction: crossing CompactEvery must fold the log in the
// background; Close waits for it.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: 5})
	commitN(t, s, 12)
	// The fold runs on a background goroutine; give it a bounded moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(s.snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never produced a snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Histories().Stats().Records; got != 12 {
		t.Fatalf("records = %d, want 12", got)
	}
}

// TestTornTailTruncated: garbage after the last intact frame — the
// crash artifact — must be truncated away on recovery, not fatal.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	commitN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The newest segment of a stripe that holds a record.
	last := segmentPath(dir, stripe.Index("ent/2"), 1)
	intact, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 100 bytes, followed by only 4: a write
	// torn mid-payload.
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], 100)
	f.Write(hdr[:])
	f.Write([]byte("torn"))
	f.Close()

	before := metricWALTornTails.Value()
	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Seq(); got != 3 {
		t.Fatalf("seq = %d, want 3", got)
	}
	if metricWALTornTails.Value() != before+1 {
		t.Fatal("torn-tail repair not counted")
	}
	if fi, err := os.Stat(last); err != nil || fi.Size() != intact.Size() {
		t.Fatalf("segment size %d after repair, want %d", fi.Size(), intact.Size())
	}
}

// TestCorruptMidLogFatal: a torn record anywhere but the final segment
// is lost data, not a crash artifact — recovery must refuse.
func TestCorruptMidLogFatal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	commitN(t, s, 2)
	s.Close()
	// Reopen rolls a second segment per stripe; more commits land in
	// ent/1's.
	s2 := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	for i := 0; i < 2; i++ {
		if err := s2.Commit(uploadRec(fmt.Sprintf("b-%d", i), "ent/1", 3, fmt.Sprintf("bk-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s2.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var withRecords []segmentInfo
	for _, seg := range segs {
		if fi, _ := os.Stat(seg.path); seg.stripe == stripe.Index("ent/1") && fi.Size() > int64(len(segMagic)) {
			withRecords = append(withRecords, seg)
		}
	}
	if len(withRecords) < 2 {
		t.Fatalf("want 2 populated segments, have %d", len(withRecords))
	}
	f, err := os.OpenFile(withRecords[0].path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("garbage mid-log"))
	f.Close()

	if _, err := Open(Options{Dir: dir, NoSync: true, Clock: simclock.NewSim(simclock.Epoch)}); err == nil {
		t.Fatal("recovery accepted a corrupt record before the final segment")
	}
}

// TestWALGapFatal: a missing sequence number means a lost record;
// recovery must refuse rather than silently skip.
func TestWALGapFatal(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(segmentPath(dir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(segMagic)
	writeFrame := func(seq uint64) {
		payload := []byte(`{"kind":"sweep"}`)
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crcFrame(seq, payload))
		binary.BigEndian.PutUint64(hdr[8:16], seq)
		f.Write(hdr[:])
		f.Write(payload)
	}
	writeFrame(1)
	writeFrame(3) // 2 is missing
	f.Close()

	if _, err := Open(Options{Dir: dir, Clock: simclock.NewSim(simclock.Epoch)}); err == nil {
		t.Fatal("recovery accepted a sequence gap")
	}
}

// TestHeaderlessSegmentRemoved: a segment that never got its magic
// (crash between create and first flush) holds nothing acknowledged.
// Recovery must delete it — truncating it to zero bytes and leaving it
// would make the next recovery read it as a torn mid-log segment.
func TestHeaderlessSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 0, 1), []byte("OPIN"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer s.Close()
	if got := s.Seq(); got != 0 {
		t.Fatalf("seq = %d, want 0", got)
	}
	if _, err := os.Stat(segmentPath(dir, 0, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial-magic segment not removed: %v", err)
	}
}

// TestIdleCrashLoopRecovers is the double-kill regression: a kill
// before any commit used to leave a zero-byte segment that the next
// recovery truncated but left in place, so once a later generation
// existed every subsequent open refused with "corrupt WAL record
// mid-log". The artifact must instead be removed, the populated later
// segment replayed, and the store must keep working across further
// restarts.
func TestIdleCrashLoopRecovers(t *testing.T) {
	dir := t.TempDir()
	// Kill #1's artifact: a segment created whose header never hit disk.
	if err := os.WriteFile(segmentPath(dir, 0, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s1 := mustOpen(t, Options{Dir: dir, NoSync: true})
	commitN(t, s1, 2)
	// Kill #2: abandon without Close. The zero-byte artifact is now
	// followed by a populated generation — the shape that used to brick.
	s2 := mustOpen(t, Options{Dir: dir, NoSync: true})
	if got := s2.Seq(); got != 2 {
		t.Fatalf("recovered seq = %d, want 2", got)
	}
	if got := s2.Histories().Stats().Records; got != 2 {
		t.Fatalf("recovered records = %d, want 2", got)
	}
	if err := s2.Commit(uploadRec("post", "ent/0", 4, "post-key")); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Seq(); got != 3 {
		t.Fatalf("seq after third open = %d, want 3", got)
	}
}

// TestSegmentHeaderOnDiskAtOpen: the active segment's magic must reach
// the file the moment the segment opens, not ride the first commit's
// flush — a zero-byte segment on disk is the artifact the two tests
// above recover from, and it should not be producible by a mere kill.
func TestSegmentHeaderOnDiskAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer s.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != s.NumStripes() {
		t.Fatalf("segments = %v, %v (want one per stripe)", segs, err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(segMagic)) {
			t.Fatalf("active segment %s is %d bytes before any commit, want %d (header flushed at open)",
				seg.path, fi.Size(), len(segMagic))
		}
	}
}

// TestCrashMidAppendLatches: the injected torn write must fail that
// commit with ErrUnavailable, latch the store against further
// mutations, and leave a log that recovers to exactly the acknowledged
// prefix.
func TestCrashMidAppendLatches(t *testing.T) {
	dir := t.TempDir()
	openCrash := func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		// Write 1 is the segment header, flushed at open; write 2 carries
		// the first frame; write 3 — the second frame — tears halfway
		// through.
		return faultinject.NewCrashFile(f, 3), nil
	}
	// Both records go to ent/0, so to one stripe's segment.
	s := mustOpen(t, Options{Dir: dir, CompactEvery: -1, OpenFile: openCrash})
	if err := s.Commit(uploadRec("a", "ent/0", 4, "k-0")); err != nil {
		t.Fatalf("pre-crash commit: %v", err)
	}
	err := s.Commit(uploadRec("b", "ent/0", 3, "k-1"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("torn append returned %v, want ErrUnavailable", err)
	}
	if !s.Failed() {
		t.Fatal("store not latched after WAL failure")
	}
	if err := s.Commit(uploadRec("c", "ent/2", 2, "k-2")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-crash commit returned %v, want ErrUnavailable", err)
	}

	// Unclean kill: abandon without Close, recover from disk.
	before := metricWALTornTails.Value()
	r := mustOpen(t, Options{Dir: dir})
	defer r.Close()
	if got := r.Seq(); got != 1 {
		t.Fatalf("recovered seq = %d, want 1 (only the acknowledged record)", got)
	}
	if got := r.Histories().Stats().Records; got != 1 {
		t.Fatalf("recovered records = %d, want 1", got)
	}
	if !r.Ledger().Contains("k-0") || r.Ledger().Contains("k-1") {
		t.Fatalf("ledger after recovery: k-0=%v k-1=%v, want true/false",
			r.Ledger().Contains("k-0"), r.Ledger().Contains("k-1"))
	}
	if metricWALTornTails.Value() != before+1 {
		t.Fatal("torn tail not detected during recovery")
	}
	if err := r.Commit(uploadRec("b", "ent/0", 3, "k-1")); err != nil {
		t.Fatalf("retry against recovered store: %v", err)
	}
}

// TestGroupCommitConcurrent hammers Commit from many goroutines: every
// record must land exactly once and the fsync count must not exceed the
// append count (group commit can only batch, never add).
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, CompactEvery: -1})
	const workers, each = 8, 25
	appends0, fsyncs0 := sumStripeCounter(metricWALAppends, s.NumStripes()), sumStripeCounter(metricWALFsyncs, s.NumStripes())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := uploadRec(fmt.Sprintf("w%d-%d", w, i), fmt.Sprintf("ent/%d", i%5), 4,
					fmt.Sprintf("w%d-key-%d", w, i))
				if err := s.Commit(rec); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Seq(); got != workers*each {
		t.Fatalf("seq = %d, want %d", got, workers*each)
	}
	if got := s.Histories().Stats().Records; got != workers*each {
		t.Fatalf("records = %d, want %d", got, workers*each)
	}
	appends := sumStripeCounter(metricWALAppends, s.NumStripes()) - appends0
	fsyncs := sumStripeCounter(metricWALFsyncs, s.NumStripes()) - fsyncs0
	if appends != workers*each {
		t.Fatalf("appends = %d, want %d", appends, workers*each)
	}
	if fsyncs == 0 || fsyncs > appends {
		t.Fatalf("fsyncs = %d for %d appends", fsyncs, appends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Histories().Stats().Records; got != workers*each {
		t.Fatalf("recovered records = %d, want %d", got, workers*each)
	}
}

// TestSnapshotIsolation: a snapshot must be a deep copy — commits after
// the cut cannot leak into it.
func TestSnapshotIsolation(t *testing.T) {
	s := mustOpen(t, Options{})
	defer s.Close()
	commitN(t, s, 2)
	snap := s.Snapshot()
	commitN(t, s, 1) // would panic on key reuse if commitN restarted; ids differ anyway
	if got := len(snap.Histories); got != 2 {
		t.Fatalf("snapshot grew after the cut: %d histories", got)
	}
	var total uint64
	for _, v := range snap.WALSeqs {
		total += v
	}
	if len(snap.WALSeqs) != s.NumStripes() || total != 2 {
		t.Fatalf("snapshot WALSeqs = %v (sum %d), want %d stripes summing 2", snap.WALSeqs, total, s.NumStripes())
	}
}

// TestRestoreResetsLog: Restore must replace the state and leave a log
// that recovers the restored state. The sequence is NOT rewound — it
// continues past the discarded commits, so records still on disk from
// before the restore can never alias post-restore ones.
func TestRestoreResetsLog(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	commitN(t, s, 3)
	snap := s.Snapshot()
	for i := 0; i < 2; i++ {
		if err := s.Commit(uploadRec(fmt.Sprintf("x-%d", i), "ent/0", 1, fmt.Sprintf("x-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := s.Seq(); got != 5 {
		t.Fatalf("seq after restore = %d, want 5 (sequence continues, never rewinds)", got)
	}
	if got := s.Histories().Stats().Records; got != 3 {
		t.Fatalf("records after restore = %d, want 3", got)
	}
	if err := s.Commit(uploadRec("post", "ent/1", 2, "post-key")); err != nil {
		t.Fatalf("commit after restore: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Seq(); got != 6 {
		t.Fatalf("recovered seq = %d, want 6", got)
	}
	if got := r.Histories().Stats().Records; got != 4 {
		t.Fatalf("recovered records = %d, want 4", got)
	}
}

// TestRestoreSurvivesStaleSegments: the crash window between Restore
// persisting the new snapshot and removing the old segments. Because
// the restored snapshot adopts the store's current sequence, the stale
// segments replay as already-folded no-ops — their records must not be
// spliced into the restored state and must not read as a gap.
func TestRestoreSurvivesStaleSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	commitN(t, s, 3)
	snap := s.Snapshot()
	for i := 0; i < 2; i++ {
		if err := s.Commit(uploadRec(fmt.Sprintf("x-%d", i), "ent/0", 1, fmt.Sprintf("x-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	stash := make(map[string][]byte, len(segs))
	for _, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		stash[seg.path] = b
	}
	if err := s.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// "Crash before removal": resurrect the pre-restore segments.
	for path, b := range stash {
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer r.Close()
	if got := r.Seq(); got != 5 {
		t.Fatalf("recovered seq = %d, want 5", got)
	}
	if got := r.Histories().Stats().Records; got != 3 {
		t.Fatalf("recovered records = %d, want 3 (stale segments replayed into the restored state)", got)
	}
}

// TestRestorePersistFailureLatches: if Restore cannot persist the
// snapshot, memory (restored) and disk (pre-restore) disagree and the
// sequence spaces have diverged — the store must latch unavailable so
// nothing is acknowledged on a timeline a restart would not recover.
func TestRestorePersistFailureLatches(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	defer s.Close()
	commitN(t, s, 3)
	snap := s.Snapshot()
	if err := s.Commit(uploadRec("x", "ent/0", 1, "x-key")); err != nil {
		t.Fatal(err)
	}
	// SaveFile installs via rename; a directory squatting on the
	// snapshot path makes that fail.
	if err := os.Mkdir(s.snapPath, 0o755); err != nil {
		t.Fatal(err)
	}
	err := s.Restore(snap)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Restore with unwritable snapshot returned %v, want ErrUnavailable", err)
	}
	if !s.Failed() {
		t.Fatal("store not latched after failed restore persist")
	}
	if err := s.Commit(uploadRec("y", "ent/1", 2, "y-key")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("commit after failed restore returned %v, want ErrUnavailable", err)
	}
}

// TestUnknownKindRefused: an unknown record kind must fail before
// anything is applied or logged.
func TestUnknownKindRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer s.Close()
	if err := s.Commit(&Record{Kind: "nonsense"}); err == nil {
		t.Fatal("unknown kind committed")
	}
	if got := s.Seq(); got != 0 {
		t.Fatalf("failed apply advanced seq to %d", got)
	}
	if s.Failed() {
		t.Fatal("apply error latched the store; only WAL errors should")
	}
}

// gatedSyncFile is a segment whose Sync, once armed, blocks until
// release is closed.
type gatedSyncFile struct {
	*os.File
	armed   *atomic.Bool
	release chan struct{}
}

func (f gatedSyncFile) Sync() error {
	if f.armed.Load() {
		<-f.release
	}
	return f.File.Sync()
}

// TestRetrainDoesNotWaitOnOtherLanes: a retrain commits on the training
// pairs' stripe alone, so an fsync stalled on another stripe cannot
// hold it up.
func TestRetrainDoesNotWaitOnOtherLanes(t *testing.T) {
	dir := t.TempDir()
	var armed atomic.Bool
	release := make(chan struct{})
	stalled := segmentPath(dir, 1, 1)
	s := mustOpen(t, Options{Dir: dir, CompactEvery: -1, OpenFile: func(path string) (File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil || path != stalled {
			return f, err
		}
		return gatedSyncFile{File: f, armed: &armed, release: release}, nil
	}})
	defer s.Close()
	defer close(release)
	for i := 0; i < 4; i++ {
		pair := &Record{Kind: KindTrainPair,
			Features: []float64{float64(i), float64(i % 2)}, TrainRating: 3 + float64(i)/4, Category: "restaurant"}
		if err := s.Commit(pair); err != nil {
			t.Fatalf("train pair: %v", err)
		}
	}
	// Armed only now: Open fsyncs every segment's header.
	armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- s.Commit(&Record{Kind: KindRetrain}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retrain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retrain waited on stripe 1's stalled fsync")
	}
	if s.Models() == nil {
		t.Fatal("no model after retrain")
	}
}

// TestSweepRecordNeedsEntity: a sweep record that drops histories must
// name the entity they are on — a record without one is refused before
// anything is applied or logged, while an empty sweep still commits.
func TestSweepRecordNeedsEntity(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), NoSync: true, CompactEvery: -1})
	defer s.Close()
	commitN(t, s, 3)
	if err := s.Commit(&Record{Kind: KindSweep, Dropped: []string{"anon-0"}}); err == nil {
		t.Fatal("sweep without an entity committed")
	}
	if got := s.Seq(); got != 3 {
		t.Fatalf("refused sweep advanced seq to %d", got)
	}
	if got := s.Histories().Stats().Histories; got != 3 {
		t.Fatalf("refused sweep left %d histories, want 3", got)
	}
	if err := s.Commit(&Record{Kind: KindSweep}); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
	// IDs bound to another entity are skipped, the rest dropped.
	if err := s.Commit(&Record{Kind: KindSweep, Entity: "ent/0", Dropped: []string{"anon-0", "anon-1"}}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := s.Histories().ByEntity("ent/0"); len(got) != 0 {
		t.Fatalf("ent/0 keeps %d histories after its sweep", len(got))
	}
	if got := s.Histories().ByEntity("ent/1"); len(got) != 1 {
		t.Fatalf("ent/1 holds %d histories, want 1: a sweep of ent/0 dropped it", len(got))
	}
}
