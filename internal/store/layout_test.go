package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opinions/internal/interaction"
	"opinions/internal/simclock"
	"opinions/internal/storage"
	"opinions/internal/stripe"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// migrationUpload is a hand-craftable upload record for seeding
// directories by hand.
func migrationUpload(i int) *Record {
	v := interaction.Record{
		Entity: fmt.Sprintf("mig/ent-%d", i), Kind: interaction.VisitKind,
		Start: simclock.Epoch, Duration: 20 * time.Minute,
	}
	r := 3.5
	return &Record{
		Kind:   KindUpload,
		AnonID: fmt.Sprintf("mig-anon-%d", i),
		Entity: v.Entity,
		Visit:  &v,
		Rating: &r,
		Key:    fmt.Sprintf("mig-key-%d", i),
	}
}

// writeLegacySegment writes a pre-sharding `wal-<gen>.log` segment
// holding one record — byte-for-byte what the single-stream store
// produced.
func writeLegacySegment(t *testing.T, dir string, gen int) string {
	t.Helper()
	payload, err := json.Marshal(migrationUpload(gen))
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crcFrame(1, payload))
	binary.BigEndian.PutUint64(hdr[8:16], 1)
	path := filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
	data := append(append([]byte(segMagic), hdr[:]...), payload...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func openQuiet(dir string) (*Store, error) {
	return Open(Options{Dir: dir, NoSync: true, CompactEvery: -1, Clock: simclock.NewSim(simclock.Epoch), Logger: quietLog()})
}

// TestOpenRefusesOldFormats: state written by earlier releases — a
// gzip-JSON snapshot.gz, pre-sharding wal-<gen>.log segments (alone or
// beside current files), or a segment holding a cross-stripe barrier
// record — makes Open fail with an error naming the file, and leaves
// the file where it was. Starting without it would silently drop
// acknowledged records; replaying a barrier's copies would apply it
// once per stripe.
func TestOpenRefusesOldFormats(t *testing.T) {
	cases := []struct {
		name string
		// current populates dir with files the current store writes.
		current func(t *testing.T, dir string)
		// old writes the refused file and returns its path.
		old func(t *testing.T, dir string) string
	}{
		{"gzip snapshot", nil, func(t *testing.T, dir string) string {
			path := filepath.Join(dir, legacySnapshotFile)
			if err := os.WriteFile(path, []byte{0x1f, 0x8b, 8, 0}, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}},
		{"legacy segment", nil, func(t *testing.T, dir string) string {
			return writeLegacySegment(t, dir, 1)
		}},
		{"legacy segment beside striped segments", func(t *testing.T, dir string) {
			s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
			if err := s.Commit(migrationUpload(0)); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}, func(t *testing.T, dir string) string {
			return writeLegacySegment(t, dir, 3)
		}},
		{"barrier record", nil, func(t *testing.T, dir string) string {
			// A cross-stripe sweep as builds before one-lane sweeps wrote
			// it: a copy at the next sequence of every stripe.
			path := segmentPath(dir, 0, 1)
			payload := []byte(`{"kind":"sweep","stripe_seqs":[1,1],"dropped":["mig-anon-0"]}`)
			var hdr [frameHeaderLen]byte
			binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.BigEndian.PutUint32(hdr[4:8], crcFrame(1, payload))
			binary.BigEndian.PutUint64(hdr[8:16], 1)
			data := append(append([]byte(segMagic), hdr[:]...), payload...)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}},
		{"legacy segment beside v5 snapshot", func(t *testing.T, dir string) {
			s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
			if err := s.Commit(migrationUpload(0)); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			s.Close()
		}, func(t *testing.T, dir string) string {
			return writeLegacySegment(t, dir, 9)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.current != nil {
				tc.current(t, dir)
			}
			path := tc.old(t, dir)
			s, err := openQuiet(dir)
			if err == nil {
				s.Close()
				t.Fatalf("Open started with %s in the directory", path)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name %s", err, path)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("refused file gone after Open: %v", err)
			}
		})
	}
}

// TestOpenRemovesLeftoverSnapshotTemps: a crash mid-SaveFile leaves a
// .snapshot-* temp file that nothing else would delete; Open removes
// it and recovers the state untouched.
func TestOpenRemovesLeftoverSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	commitN(t, s, 4)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	leftover := filepath.Join(dir, ".snapshot-1234567")
	if err := os.WriteFile(leftover, []byte("OPINSNP5 half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	defer r.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived Open: %v", err)
	}
	if got := r.Histories().Stats().Records; got != 4 {
		t.Fatalf("records = %d, want 4", got)
	}
}

// TestOpenRefusesDamagedSnapshot: a flipped byte or a truncation in
// the installed snapshot fails Open with a checksum error, before any
// of its state is installed.
func TestOpenRefusesDamagedSnapshot(t *testing.T) {
	damage := map[string]func(b []byte) []byte{
		"byte flip": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"last byte": func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"half":      func(b []byte) []byte { return b[:len(b)/2] },
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
			commitN(t, s, 6)
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			path := filepath.Join(dir, snapshotFile)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, fn(data), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := openQuiet(dir)
			if err == nil {
				r.Close()
				t.Fatal("Open accepted a damaged snapshot")
			}
			if !errors.Is(err, storage.ErrChecksum) {
				t.Fatalf("err = %v, want storage.ErrChecksum", err)
			}
		})
	}
}

// TestOtherStripeWidthsRefused: every release runs stripe.NumShards
// commit lanes, so state from any other width — a segment for a stripe
// past the last, a snapshot vector of another length at Open or handed
// to Restore — is refused with an error naming both widths.
func TestOtherStripeWidthsRefused(t *testing.T) {
	wider := fmt.Sprint(stripe.NumShards + 1)
	cases := []struct {
		name string
		// refuse makes dir hold, or hands the store, the other width's
		// state and returns the refusal.
		refuse func(t *testing.T, dir string) error
		// want are substrings the refusal must contain.
		want []string
	}{
		{"segment for stripe 64 at Open", func(t *testing.T, dir string) error {
			if err := os.WriteFile(segmentPath(dir, stripe.NumShards, 1), []byte(segMagic), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := openQuiet(dir)
			return err
		}, []string{segmentPath("", stripe.NumShards, 1), wider, "runs 64"}},
		{"snapshot of 4 stripes at Open", func(t *testing.T, dir string) error {
			snap := &storage.Snapshot{SavedAt: simclock.Epoch, WALSeqs: []uint64{1, 2, 3, 4}}
			if err := storage.SaveFile(filepath.Join(dir, snapshotFile), snap); err != nil {
				t.Fatal(err)
			}
			_, err := openQuiet(dir)
			return err
		}, []string{"spans 4 commit stripes", "runs 64", snapshotFile}},
		{"snapshot of 4 stripes to Restore", func(t *testing.T, dir string) error {
			s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
			defer s.Close()
			commitN(t, s, 3)
			snap := s.Snapshot()
			snap.WALSeqs = snap.WALSeqs[:4]
			err := s.Restore(snap)
			// The refusal leaves the store as it was, and usable.
			if got := s.Seq(); got != 3 || s.Failed() {
				t.Fatalf("after the refused Restore: seq %d, failed %v; want 3, false", got, s.Failed())
			}
			if err := s.Commit(uploadRec("post", "ent/0", 4, "post-key")); err != nil {
				t.Fatalf("commit after the refused Restore: %v", err)
			}
			return err
		}, []string{"spans 4 commit stripes", "runs 64"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.refuse(t, t.TempDir())
			if err == nil {
				t.Fatal("accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("refusal %q does not contain %q", err, w)
				}
			}
		})
	}
}
