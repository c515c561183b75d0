// Package storage persists the RSP's state — reviews, anonymous
// histories, inferred opinions, training pairs, and the trained model —
// as an atomic, checksummed binary snapshot.
//
// A snapshot is the whole-store format: the paper's privacy design
// (§4.2) means the server state is already free of user identities, so
// a snapshot leaks nothing a live server would not. Snapshots are
// written via a temp file + rename, so a crash mid-save never corrupts
// the previous snapshot.
//
// The format is one stream, encoded through a bufio.Writer and decoded
// through a bufio.Reader, so neither side holds the whole document:
//
//	"OPINSNP5"   8-byte magic (the 5 is FormatVersion)
//	header       SavedAt, WALSeqs
//	reviews      count; per review ID, Entity, Author, Rating, Text, Time
//	opinions     count; per entity, in key order, the key and its ratings
//	histories    count; per history AnonID, Entity, and its records (none
//	             for the binding of an ID whose history a sweep dropped)
//	dedup keys   count; keys oldest first
//	training     TrainX rows, TrainY, TrainCats
//	models       present?; Global, then PerCategory in key order
//	uint32 LE    CRC-32C (Castagnoli) of every byte before it
//
// Counts and string lengths are uvarints, signed integers zig-zag
// varints, floats their 8-byte little-endian IEEE 754 bits, presence
// flags one byte 0 or 1. A time is Unix seconds, nanoseconds, and the
// zone offset in seconds, so wall clock and zone survive a restart
// exactly as they appear in API responses. The encoding is canonical —
// minimal varints, strictly sorted map keys — so one state has exactly
// one encoding, and Read refuses every other spelling of it.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"opinions/internal/history"
	"opinions/internal/inference"
	"opinions/internal/interaction"
	"opinions/internal/reviews"
)

// FormatVersion identifies the snapshot schema. Version 5 is the
// checksummed binary stream above; versions 1–4 were gzip-compressed
// JSON and are no longer read.
const FormatVersion = 5

const (
	magic      = "OPINSNP5"
	trailerLen = 4
	bufSize    = 1 << 16
	// tempPrefix starts the name of every SaveFile temp file;
	// RemoveTemps finds the ones a crash left behind by it.
	tempPrefix = ".snapshot-"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum reports a snapshot whose bytes are not the ones written:
// the CRC-32C trailer does not match the content, or is missing.
var ErrChecksum = errors.New("storage: snapshot checksum mismatch")

// Snapshot is the serializable server state.
type Snapshot struct {
	// Version is FormatVersion on every snapshot Read returns; Write
	// accepts 0 (meaning FormatVersion) or FormatVersion.
	Version int
	SavedAt time.Time
	// WALSeqs is the per-commit-stripe sequence vector: WALSeqs[i] is
	// the last record of stripe i whose effects this snapshot contains.
	// Its length records the stripe geometry the snapshot was cut under.
	WALSeqs []uint64

	Reviews   []reviews.Review
	Opinions  map[string][]float64
	Histories []history.EntityHistory
	// DedupKeys is the exactly-once upload ledger: idempotency keys of
	// already-applied uploads, oldest first.
	DedupKeys []string

	TrainX    [][]float64
	TrainY    []float64
	TrainCats []string
	Models    *inference.ModelSet
}

// Write serializes the snapshot to w, checksum last. The caller's
// snapshot is not mutated.
func Write(w io.Writer, s *Snapshot) error {
	if s.Version != 0 && s.Version != FormatVersion {
		return fmt.Errorf("storage: cannot write snapshot version %d, only %d", s.Version, FormatVersion)
	}
	h := crc32.New(castagnoli)
	e := &encoder{w: bufio.NewWriterSize(io.MultiWriter(w, h), bufSize)}
	e.snapshot(s)
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("storage: writing snapshot: %w", err)
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], h.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("storage: writing snapshot checksum: %w", err)
	}
	return nil
}

// Read deserializes a snapshot from r, which must be able to say how
// many bytes it holds — a *os.File, a *bytes.Reader or *bytes.Buffer,
// or any reader wrapped in io.LimitReader — so that no length prefix
// allocates more than the input could contain. It returns a snapshot
// only once the whole input has decoded and its checksum matched; a
// damaged input fails with ErrChecksum whatever the damage made the
// decoder trip over first.
func Read(r io.Reader) (*Snapshot, error) {
	size, ok := inputSize(r)
	if !ok {
		return nil, fmt.Errorf("storage: cannot bound a snapshot read from %T; wrap it in io.LimitReader", r)
	}
	d := &decoder{
		r:    bufio.NewReaderSize(r, int(min(size, bufSize))),
		left: max(size-trailerLen, 0),
	}
	snap, decErr := d.decode()
	intact, extra, err := d.verify()
	switch {
	case err != nil:
		return nil, fmt.Errorf("storage: reading snapshot: %w", err)
	case !intact && decErr != nil:
		return nil, fmt.Errorf("%w (decoding stopped at: %v)", ErrChecksum, decErr)
	case !intact:
		return nil, ErrChecksum
	case decErr != nil:
		return nil, decErr
	case extra > 0:
		return nil, fmt.Errorf("storage: %d trailing bytes after the snapshot", extra)
	}
	return snap, nil
}

// inputSize reports how many bytes r can still deliver, for the
// readers snapshots arrive on.
func inputSize(r io.Reader) (int64, bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *io.LimitedReader:
		return r.N, true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}

// SaveFile writes the snapshot to path atomically and durably: temp
// file, fsync, rename, then fsync of the directory. Without the syncs a
// power loss shortly after rename can leave either an empty file (data
// never flushed) or the old name (rename never journaled) — the classic
// rename-without-fsync hole.
func SaveFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("storage: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("storage: syncing temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("storage: closing temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("storage: installing snapshot: %w", err)
	}
	return syncDir(dir)
}

// RemoveTemps deletes the temp files SaveFile left in dir when a crash
// cut a save short, returning their paths. Only the directory's owner
// may call it, at a moment no save into dir can be running.
func RemoveTemps(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing temp files: %w", err)
	}
	var removed []string
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if err := os.Remove(path); err != nil {
			return removed, fmt.Errorf("storage: removing leftover temp file: %w", err)
		}
		removed = append(removed, path)
	}
	return removed, nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename itself still happened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: opening %s: %w", path, err)
	}
	defer f.Close()
	snap, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return snap, nil
}

// encoder writes the stream. bufio.Writer latches the first write
// error and Flush reports it, so the field writers need not.
type encoder struct {
	w   *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) snapshot(s *Snapshot) {
	e.w.WriteString(magic)
	e.time(s.SavedAt)
	e.uvarint(uint64(len(s.WALSeqs)))
	for _, v := range s.WALSeqs {
		e.uvarint(v)
	}

	e.uvarint(uint64(len(s.Reviews)))
	for i := range s.Reviews {
		r := &s.Reviews[i]
		e.str(r.ID)
		e.str(r.Entity)
		e.str(r.Author)
		e.float(r.Rating)
		e.str(r.Text)
		e.time(r.Time)
	}

	keys := sortedKeys(s.Opinions)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.floats(s.Opinions[k])
	}

	e.uvarint(uint64(len(s.Histories)))
	for i := range s.Histories {
		h := &s.Histories[i]
		e.str(h.AnonID)
		e.str(h.Entity)
		e.uvarint(uint64(len(h.Records)))
		for j := range h.Records {
			rec := &h.Records[j]
			e.str(rec.Entity)
			e.varint(int64(rec.Kind))
			e.time(rec.Start)
			e.varint(int64(rec.Duration))
			e.float(rec.DistanceFrom)
			e.float(rec.Amount)
		}
	}

	e.strs(s.DedupKeys)

	e.uvarint(uint64(len(s.TrainX)))
	for _, x := range s.TrainX {
		e.floats(x)
	}
	e.floats(s.TrainY)
	e.strs(s.TrainCats)

	e.flag(s.Models != nil)
	if s.Models != nil {
		e.model(s.Models.Global)
		keys := sortedKeys(s.Models.PerCategory)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.model(s.Models.PerCategory[k])
		}
	}
}

func (e *encoder) model(m *inference.Model) {
	e.flag(m != nil)
	if m == nil {
		return
	}
	e.floats(m.Weights)
	e.floats(m.Mean)
	e.floats(m.Std)
	e.float(m.Lambda)
	e.float(m.ResidualStd)
	e.varint(int64(m.N))
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.w.Write(e.tmp[:n])
}

func (e *encoder) varint(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.w.Write(e.tmp[:n])
}

func (e *encoder) float(f float64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(f))
	e.w.Write(e.tmp[:8])
}

func (e *encoder) flag(b bool) {
	if b {
		e.w.WriteByte(1)
	} else {
		e.w.WriteByte(0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.w.WriteString(s)
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) floats(fs []float64) {
	e.uvarint(uint64(len(fs)))
	for _, f := range fs {
		e.float(f)
	}
}

func (e *encoder) time(t time.Time) {
	_, off := t.Zone()
	e.varint(t.Unix())
	e.uvarint(uint64(t.Nanosecond()))
	e.varint(int64(off))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Minimum encoded sizes, in bytes, of the repeated elements: a count
// is refused when the bytes left could not hold that many elements,
// which bounds every allocation by a small multiple of the input.
const (
	minTime    = 3                           // seconds, nanoseconds, offset
	minReview  = 1 + 1 + 1 + 8 + 1 + minTime // ID, Entity, Author, Rating, Text, Time
	minRecord  = 1 + 1 + minTime + 1 + 8 + 8 // Entity, Kind, Start, Duration, DistanceFrom, Amount
	minHistory = 1 + 1 + 1                   // AnonID, Entity, record count
	minEntry   = 1 + 1                       // map key, then a count or a presence flag
)

// maxZoneOffset bounds a decoded zone offset: RFC 3339, and so every
// JSON response carrying the time, cannot express a day or more.
const maxZoneOffset = 24 * 60 * 60

// decodeError carries a malformed-input error from deep in the decoder
// up to decode, which returns it.
type decodeError struct{ err error }

// decoder reads the stream through a window peeked from r. Consumed
// bytes are hashed when the window is discarded, so the checksum costs
// one pass over the input and no copy.
type decoder struct {
	r    *bufio.Reader
	buf  []byte // the peeked window; buf[:pos] is consumed
	pos  int
	crc  uint32
	left int64 // body bytes the input still holds past buf[:pos]
}

func (d *decoder) fail(format string, args ...any) {
	panic(decodeError{fmt.Errorf("storage: malformed snapshot: "+format, args...)})
}

// decode reads the body, turning the decoder's failures into an error.
func (d *decoder) decode() (snap *Snapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			de, ok := p.(decodeError)
			if !ok {
				panic(p)
			}
			snap, err = nil, de.err
		}
	}()
	return d.snapshot(), nil
}

// fill makes n bytes available in the window when the input still has
// them; fewer mean the input ends first.
func (d *decoder) fill(n int) {
	if len(d.buf)-d.pos >= n {
		return
	}
	d.crc = crc32.Update(d.crc, castagnoli, d.buf[:d.pos])
	d.r.Discard(d.pos)
	b, err := d.r.Peek(d.r.Size())
	if err != nil && err != io.EOF {
		d.fail("%w", err)
	}
	d.buf, d.pos = b, 0
}

// take consumes the next n bytes (n no larger than the read buffer).
func (d *decoder) take(n int) []byte {
	d.fill(n)
	if len(d.buf)-d.pos < n || int64(n) > d.left {
		d.fail("%w", io.ErrUnexpectedEOF)
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	d.left -= int64(n)
	return b
}

func (d *decoder) uvarint() uint64 {
	d.fill(binary.MaxVarintLen64)
	b := d.buf[d.pos:]
	if int64(len(b)) > d.left {
		b = b[:d.left]
	}
	v, n := binary.Uvarint(b)
	switch {
	case n == 0:
		d.fail("%w", io.ErrUnexpectedEOF)
	case n < 0:
		d.fail("varint overflows 64 bits")
	case n > 1 && b[n-1] == 0:
		d.fail("varint is not minimally encoded")
	}
	d.pos += n
	d.left -= int64(n)
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads a length prefix for elements of at least minSize bytes.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(d.left/int64(minSize)) {
		d.fail("length %d does not fit in the %d bytes left", n, d.left)
	}
	return int(n)
}

func (d *decoder) float() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.take(8)))
}

func (d *decoder) flag() bool {
	switch b := d.take(1)[0]; b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("presence flag %d", b)
		return false
	}
}

func (d *decoder) str() string {
	n := d.count(1)
	d.fill(min(n, d.r.Size()))
	if len(d.buf)-d.pos >= n {
		s := string(d.buf[d.pos : d.pos+n])
		d.pos += n
		d.left -= int64(n)
		return s
	}
	// Longer than the read buffer: assemble it window by window.
	var sb strings.Builder
	sb.Grow(n)
	for sb.Len() < n {
		d.fill(1)
		chunk := max(1, min(n-sb.Len(), len(d.buf)-d.pos))
		sb.Write(d.take(chunk))
	}
	return sb.String()
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) floats() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float()
	}
	return out
}

// time mirrors how encoding/json parses the RFC 3339 it prints: offset
// 0 is UTC, the local zone's offset at that instant is time.Local, and
// any other offset a fixed zone.
func (d *decoder) time() time.Time {
	sec, nsec, off := d.varint(), d.uvarint(), d.varint()
	if nsec >= 1e9 {
		d.fail("nanoseconds %d out of range", nsec)
	}
	if off <= -maxZoneOffset || off >= maxZoneOffset {
		d.fail("zone offset %ds out of range", off)
	}
	t := time.Unix(sec, int64(nsec))
	if off == 0 {
		return t.UTC()
	}
	if _, local := t.Zone(); int64(local) == off {
		return t
	}
	return t.In(time.FixedZone("", int(off)))
}

// key reads a map key, which must sort strictly after the previous one.
func (d *decoder) key(prev string, first bool) string {
	k := d.str()
	if !first && k <= prev {
		d.fail("map key %q out of order", k)
	}
	return k
}

func (d *decoder) snapshot() *Snapshot {
	if string(d.take(len(magic))) != magic {
		d.fail("not a v%d snapshot (bad magic)", FormatVersion)
	}
	s := &Snapshot{Version: FormatVersion, SavedAt: d.time()}
	if n := d.count(1); n > 0 {
		s.WALSeqs = make([]uint64, n)
		for i := range s.WALSeqs {
			s.WALSeqs[i] = d.uvarint()
		}
	}

	if n := d.count(minReview); n > 0 {
		s.Reviews = make([]reviews.Review, n)
		for i := range s.Reviews {
			r := &s.Reviews[i]
			r.ID = d.str()
			r.Entity = d.str()
			r.Author = d.str()
			r.Rating = d.float()
			r.Text = d.str()
			r.Time = d.time()
		}
	}

	if n := d.count(minEntry); n > 0 {
		s.Opinions = make(map[string][]float64, n)
		var k string
		for i := 0; i < n; i++ {
			k = d.key(k, i == 0)
			s.Opinions[k] = d.floats()
		}
	}

	if n := d.count(minHistory); n > 0 {
		s.Histories = make([]history.EntityHistory, n)
		for i := range s.Histories {
			h := &s.Histories[i]
			h.AnonID = d.str()
			h.Entity = d.str()
			if m := d.count(minRecord); m > 0 {
				h.Records = make([]interaction.Record, m)
				for j := range h.Records {
					rec := &h.Records[j]
					rec.Entity = d.str()
					rec.Kind = interaction.Kind(d.varint())
					rec.Start = d.time()
					rec.Duration = time.Duration(d.varint())
					rec.DistanceFrom = d.float()
					rec.Amount = d.float()
				}
			}
		}
	}

	s.DedupKeys = d.strs()

	if n := d.count(1); n > 0 {
		s.TrainX = make([][]float64, n)
		for i := range s.TrainX {
			s.TrainX[i] = d.floats()
		}
	}
	s.TrainY = d.floats()
	s.TrainCats = d.strs()

	if d.flag() {
		s.Models = &inference.ModelSet{Global: d.model()}
		if n := d.count(minEntry); n > 0 {
			s.Models.PerCategory = make(map[string]*inference.Model, n)
			var k string
			for i := 0; i < n; i++ {
				k = d.key(k, i == 0)
				s.Models.PerCategory[k] = d.model()
			}
		}
	}
	return s
}

func (d *decoder) model() *inference.Model {
	if !d.flag() {
		return nil
	}
	return &inference.Model{
		Weights:     d.floats(),
		Mean:        d.floats(),
		Std:         d.floats(),
		Lambda:      d.float(),
		ResidualStd: d.float(),
		N:           int(d.varint()),
	}
}

// verify hashes the rest of the input but its last four bytes, and
// reports whether those four are the CRC-32C of everything before them
// and how many bytes lay between where decoding stopped and them —
// after a clean decode, any such byte is trailing garbage.
func (d *decoder) verify() (intact bool, extra int64, err error) {
	d.crc = crc32.Update(d.crc, castagnoli, d.buf[:d.pos])
	d.r.Discard(d.pos)
	d.buf, d.pos = nil, 0
	for {
		b, err := d.r.Peek(d.r.Size())
		if err != nil && err != io.EOF {
			return false, extra, err
		}
		if len(b) < trailerLen {
			return false, extra, nil
		}
		n := len(b) - trailerLen
		d.crc = crc32.Update(d.crc, castagnoli, b[:n])
		extra += int64(n)
		if err == io.EOF {
			return binary.LittleEndian.Uint32(b[n:]) == d.crc, extra, nil
		}
		// A full window: more may follow, so the last four bytes seen
		// need not be the trailer yet.
		d.r.Discard(n)
	}
}
