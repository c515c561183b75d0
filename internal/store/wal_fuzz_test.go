package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// scannedRecord is one frame replaySegment delivered.
type scannedRecord struct {
	seq     uint64
	payload string
}

// scanBytes writes data as a segment file at path and scans it.
func scanBytes(t *testing.T, path string, data []byte) ([]scannedRecord, int64, bool, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []scannedRecord
	validLen, torn, err := replaySegment(path, func(seq uint64, payload []byte) error {
		got = append(got, scannedRecord{seq: seq, payload: string(payload)})
		return nil
	})
	return got, validLen, torn, err
}

// realSegment commits three small uploads, all on one entity and so on
// one stripe, and returns the bytes of the segment they went to.
func realSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, CompactEvery: -1, NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for i, key := range []string{"k1", "k2", "k3"} {
		rating := float64(i + 1)
		if err := s.Commit(&Record{Kind: KindUpload, AnonID: "a", Entity: "e/1", Rating: &rating, Key: key}); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			f.Fatal(err)
		}
		if len(data) > len(segMagic) {
			return data
		}
	}
	f.Fatal("the store wrote no frame")
	return nil
}

// FuzzReplaySegment: the WAL frame scan must take any bytes a crash or
// bit rot leaves behind without panicking, never claim more valid
// bytes than the input holds, account for every byte when it reports a
// clean end, deliver sequences in strictly increasing order, and — the
// property torn-tail repair relies on when it truncates to validLen —
// re-scan its valid prefix to the same frames with no torn tail.
func FuzzReplaySegment(f *testing.F) {
	seg := realSegment(f)
	f.Add(seg)
	for i := range seg {
		f.Add(seg[:i])
		flipped := bytes.Clone(seg)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}
	f.Add(append(bytes.Clone(seg), 0))
	// The first frame appended again: intact, but out of order.
	first := len(segMagic) + frameHeaderLen + int(binary.BigEndian.Uint32(seg[len(segMagic):]))
	f.Add(append(bytes.Clone(seg), seg[len(segMagic):first]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "segment")
		frames, validLen, torn, err := scanBytes(t, path, data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		if !torn && err == nil && validLen != int64(len(data)) {
			t.Fatalf("clean scan accounted for %d of %d bytes", validLen, len(data))
		}
		for i := 1; i < len(frames); i++ {
			if frames[i].seq <= frames[i-1].seq {
				t.Fatalf("frame %d has seq %d after %d", i, frames[i].seq, frames[i-1].seq)
			}
		}
		if validLen == 0 {
			return // no intact magic: nothing to re-scan
		}
		again, againLen, againTorn, againErr := scanBytes(t, path, data[:validLen])
		if againErr != nil || againTorn || againLen != validLen {
			t.Fatalf("re-scan of the valid prefix: len %d torn %v err %v, want len %d, clean",
				againLen, againTorn, againErr, validLen)
		}
		if !reflect.DeepEqual(again, frames) {
			t.Fatalf("re-scan delivered %d frames, the first scan %d", len(again), len(frames))
		}
	})
}
