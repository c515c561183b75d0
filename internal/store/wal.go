package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The on-disk write-ahead-log format. A segment file is:
//
//	"OPINWAL1"                                  8-byte magic
//	frame*                                      zero or more frames
//
// and each frame is:
//
//	uint32 BE  payload length                   4 bytes
//	uint32 BE  CRC-32 (IEEE) over seq+payload   4 bytes
//	uint64 BE  record sequence number           8 bytes
//	payload    JSON-encoded Record              length bytes
//
// The checksum covers the sequence number so a frame cannot be
// spliced into a different log position, and the length is checked
// against maxRecordBytes before allocation so a corrupt header cannot
// drive a huge allocation.
//
// The commit pipeline is sharded: each commit stripe owns its own
// segment family, named wal-s<stripe>-<gen>.log, with its own
// monotonically increasing generation and its own sequence space
// numbered from 1. Generation naming (rather than sequence naming)
// means a crash between opening a fresh segment and writing its first
// record can never collide with an existing file name.
const (
	segMagic       = "OPINWAL1"
	frameHeaderLen = 4 + 4 + 8
	maxRecordBytes = 1 << 26 // 64 MiB: far above any real record, far below a bad length
	walBufSize     = 1 << 16
)

// File is the writable handle a WAL segment lives on. *os.File
// satisfies it; fault injection substitutes implementations that tear
// writes or fail fsync.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// defaultOpenFile creates a fresh segment. O_EXCL: generations never
// repeat, so an existing file of the same name means a bookkeeping bug,
// not a file to append to.
func defaultOpenFile(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func segmentPath(dir string, stripe, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-s%d-%08d.log", stripe, gen))
}

// segmentInfo is one discovered segment file.
type segmentInfo struct {
	path   string
	stripe int
	gen    int
}

// listSegments returns every WAL segment under dir, stripes in index
// order, each family in generation (= creation) order.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing WAL dir: %w", err)
	}
	var out []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var stripe, gen int
		if n, err := fmt.Sscanf(e.Name(), "wal-s%d-%d.log", &stripe, &gen); err == nil && n == 2 {
			out = append(out, segmentInfo{path: filepath.Join(dir, e.Name()), stripe: stripe, gen: gen})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].stripe != out[j].stripe {
			return out[i].stripe < out[j].stripe
		}
		return out[i].gen < out[j].gen
	})
	return out, nil
}

func crcFrame(seq uint64, payload []byte) uint32 {
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], seq)
	c := crc32.Update(0, crc32.IEEETable, sb[:])
	return crc32.Update(c, crc32.IEEETable, payload)
}

// walBatch is one group commit: every record buffered since the last
// fsync shares a batch, and one fsync acknowledges them all.
type walBatch struct {
	dirty bool // a record is buffered; guarded by walLog.mu
	n     int  // records in the batch; guarded by walLog.mu
	done  chan struct{}
	err   error
	once  sync.Once
}

func newWalBatch() *walBatch { return &walBatch{done: make(chan struct{})} }

func (b *walBatch) complete(err error) {
	b.once.Do(func() {
		b.err = err
		close(b.done)
	})
}

func (b *walBatch) wait() error {
	<-b.done
	return b.err
}

// walLog is the append side of one stripe's log: buffered frame writes
// under a mutex, with a single background syncer turning any number of
// concurrent committers into one fsync per flush cycle (group commit).
// Appenders return immediately with the batch to wait on; the syncer
// flushes the buffer, fsyncs once, and releases the whole batch. Each
// commit stripe owns one walLog, so stripes never share a lock or an
// fsync.
type walLog struct {
	dir      string
	stripe   int
	nosync   bool
	openFile func(path string) (File, error)
	met      *laneMetrics

	// mu guards the buffered writer, active file, size, generation, and
	// the current batch. syncMu serializes flush cycles, rotation, and
	// close against each other; lock order is always syncMu then mu.
	mu     sync.Mutex
	syncMu sync.Mutex
	f      File
	w      *bufio.Writer
	path   string
	gen    int
	size   int64
	cur    *walBatch
	closed bool

	syncCh chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup
}

var errWALClosed = errors.New("store: write-ahead log closed")

// newWalLog opens a fresh active segment for the stripe at the given
// generation and starts the group-commit syncer.
func newWalLog(dir string, stripe, gen int, openFile func(string) (File, error), nosync bool, met *laneMetrics) (*walLog, error) {
	if openFile == nil {
		openFile = defaultOpenFile
	}
	l := &walLog{
		dir:      dir,
		stripe:   stripe,
		nosync:   nosync,
		openFile: openFile,
		met:      met,
		cur:      newWalBatch(),
		syncCh:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	if err := l.openSegmentLocked(gen); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.syncer()
	return l, nil
}

// openSegmentLocked creates segment gen and installs it as the active
// file. The magic is flushed (and, unless nosync, fsynced) before the
// segment is installed: a segment file must never sit on disk at zero
// bytes, or a kill here would leave an artifact a later recovery could
// misread as a torn mid-log segment. The caller holds mu (or the log
// is not yet shared). On error the partial file is removed and the
// previous segment, if any, stays installed.
func (l *walLog) openSegmentLocked(gen int) error {
	path := segmentPath(l.dir, l.stripe, gen)
	f, err := l.openFile(path)
	if err != nil {
		return fmt.Errorf("store: opening WAL segment: %w", err)
	}
	fail := func(op string, err error) error {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: %s WAL segment header: %w", op, err)
	}
	w := bufio.NewWriterSize(f, walBufSize)
	if _, err := w.WriteString(segMagic); err != nil {
		return fail("writing", err)
	}
	if err := w.Flush(); err != nil {
		return fail("writing", err)
	}
	if !l.nosync {
		if err := f.Sync(); err != nil {
			return fail("syncing", err)
		}
	}
	l.f, l.w, l.path, l.gen, l.size = f, w, path, gen, int64(len(segMagic))
	return nil
}

// append buffers one frame and returns the batch to wait on plus the
// active segment's size. The write is not durable until the batch
// completes.
func (l *walLog) append(seq uint64, payload []byte) (*walBatch, int64, error) {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return nil, 0, fmt.Errorf("store: record payload %d bytes (max %d)", len(payload), maxRecordBytes)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, 0, errWALClosed
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crcFrame(seq, payload))
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.mu.Unlock()
		return nil, 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.mu.Unlock()
		return nil, 0, err
	}
	l.size += frameHeaderLen + int64(len(payload))
	size := l.size
	b := l.cur
	b.dirty = true
	b.n++
	l.mu.Unlock()
	select {
	case l.syncCh <- struct{}{}:
	default: // a flush is already pending; it will pick this record up
	}
	return b, size, nil
}

func (l *walLog) syncer() {
	defer l.wg.Done()
	for {
		select {
		case <-l.quit:
			return
		case <-l.syncCh:
			l.flushCycle()
		}
	}
}

// flushCycle swaps in a fresh batch, flushes everything buffered, and
// fsyncs once for the whole batch. Records appended while the fsync is
// in flight land in the fresh batch and ride the next cycle — that
// window is what amortizes fsync across concurrent committers on the
// same stripe.
func (l *walLog) flushCycle() {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	// Yield before sealing the batch, for as long as records keep
	// arriving (bounded): committers released by the previous cycle are
	// runnable but may not have appended yet, and each scheduler pass
	// lets another wave in — the cheap analogue of a group-commit delay.
	// A lone committer pays two empty yields, nanoseconds against the
	// fsync.
	lastN := -1
	for i := 0; i < 8; i++ {
		runtime.Gosched()
		l.mu.Lock()
		n := l.cur.n
		l.mu.Unlock()
		if n == lastN {
			break
		}
		lastN = n
	}
	l.mu.Lock()
	b := l.cur
	if l.closed || !b.dirty {
		l.mu.Unlock()
		return
	}
	l.cur = newWalBatch()
	err := l.w.Flush()
	f := l.f
	n := b.n
	l.mu.Unlock()
	if err == nil && !l.nosync {
		start := time.Now()
		err = f.Sync()
		if l.met != nil {
			l.met.fsyncs.Inc()
			l.met.fsyncSeconds.Observe(time.Since(start).Seconds())
		}
	}
	if l.met != nil {
		l.met.batchSize.Observe(float64(n))
	}
	b.complete(err)
}

// flush forces everything buffered onto disk — flush, fsync, release
// any pending batch — without rotating. ExportFrames calls it so a
// reader sees every record appended before the call.
func (l *walLog) flush() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errWALClosed
	}
	err := l.w.Flush()
	if err == nil && !l.nosync {
		err = l.f.Sync()
		if l.met != nil {
			l.met.fsyncs.Inc()
		}
	}
	if b := l.cur; b.dirty {
		if l.met != nil {
			l.met.batchSize.Observe(float64(b.n))
		}
		b.complete(err)
		l.cur = newWalBatch()
	}
	return err
}

// rotate flushes and fsyncs the active segment, releases any pending
// batch, then switches appends to a fresh segment at the next
// generation. The caller must have quiesced appends (the store holds
// the stripe's lane lock); waiters on the pending batch need no
// quiescing — they are released here with the flush's outcome.
func (l *walLog) rotate() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errWALClosed
	}
	err := l.w.Flush()
	if err == nil && !l.nosync {
		err = l.f.Sync()
	}
	if b := l.cur; b.dirty {
		b.complete(err)
		l.cur = newWalBatch()
	}
	if err != nil {
		return err
	}
	old := l.f
	if err := l.openSegmentLocked(l.gen + 1); err != nil {
		return err
	}
	_ = old.Close()
	return nil
}

// close flushes, fsyncs, releases any pending batch, and stops the
// syncer. Idempotent.
func (l *walLog) close() error {
	l.syncMu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.syncMu.Unlock()
		return nil
	}
	err := l.w.Flush()
	if err == nil && !l.nosync {
		err = l.f.Sync()
	}
	if b := l.cur; b.dirty {
		b.complete(err)
	}
	cerr := l.f.Close()
	l.closed = true
	l.mu.Unlock()
	l.syncMu.Unlock()
	close(l.quit)
	l.wg.Wait()
	if err != nil {
		return err
	}
	return cerr
}

// replaySegment scans one segment file, invoking fn for every intact
// frame in order. It returns the byte offset just past the last intact
// frame and whether the segment ends in a torn or corrupt frame — a
// partial header, a partial payload, a bad length, a checksum mismatch,
// or a missing/short magic. A replay error from fn aborts the scan, and
// so does an intact frame whose sequence number is not above the
// previous frame's: a crash tears a frame, it does not reorder one.
func replaySegment(path string, fn func(seq uint64, payload []byte) error) (validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("store: opening WAL segment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, walBufSize)

	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, true, nil // empty or partial header: torn at offset 0
	}
	if string(magic) != segMagic {
		return 0, true, nil // foreign bytes; truncating to 0 discards them
	}
	off := int64(len(segMagic))
	var hdr [frameHeaderLen]byte
	var last uint64
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return off, false, nil // clean end
			}
			return off, true, nil // partial frame header
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		seq := binary.BigEndian.Uint64(hdr[8:16])
		if n == 0 || n > maxRecordBytes {
			return off, true, nil // corrupt length
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, true, nil // partial payload
		}
		if crcFrame(seq, payload) != sum {
			return off, true, nil // bit rot or a write torn inside the payload
		}
		if off > int64(len(segMagic)) && seq <= last {
			return off, false, fmt.Errorf("store: WAL record %d follows %d in %s", seq, last, path)
		}
		if err := fn(seq, payload); err != nil {
			return off, false, err
		}
		last = seq
		off += frameHeaderLen + int64(n)
	}
}
