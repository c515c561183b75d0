package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"opinions/internal/cluster"
	"opinions/internal/store"
	"opinions/internal/stripe"
)

// WritePreload commits the preload into a fresh durability directory
// through the store's public functions only: bulk, compaction, tail,
// close. fsync is off while writing — the bytes are the same and the
// server under test opens the directory with fsync on.
func WritePreload(dir string, pl *Preload) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(store.Options{Dir: dir, NoSync: true, CompactEvery: -1, Logger: quietLogger})
	if err != nil {
		return fmt.Errorf("opening preload store: %w", err)
	}
	commitAll := func(recs []*store.Record) error {
		for _, rec := range recs {
			// Commit stamps sequence numbers and review ids into the
			// record; commit a copy so one generated preload can fill
			// several directories.
			cp := *rec
			if rec.Review != nil {
				rev := *rec.Review
				cp.Review = &rev
			}
			if err := st.Commit(&cp); err != nil {
				return fmt.Errorf("preload commit (%s): %w", rec.Kind, err)
			}
		}
		return nil
	}
	if err := commitAll(pl.Bulk); err != nil {
		st.Close()
		return err
	}
	if err := st.Compact(); err != nil {
		st.Close()
		return fmt.Errorf("preload compaction: %w", err)
	}
	if err := commitAll(pl.Tail); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// Slice returns the part of the preload partition p of an n-way ring
// owns: entity records by the ring's key hash, training pairs by
// category as rspclient.Router routes them, the retrain everywhere.
func (pl *Preload) Slice(ring *cluster.Ring, p int) *Preload {
	n := ring.NumPartitions()
	owns := func(rec *store.Record) bool {
		switch rec.Kind {
		case store.KindUpload:
			return ring.Owns(p, rec.Entity)
		case store.KindReview:
			return ring.Owns(p, rec.Review.Entity)
		case store.KindTrainPair:
			return stripe.IndexN(rec.Category, n) == p
		}
		return true
	}
	filter := func(recs []*store.Record) []*store.Record {
		var out []*store.Record
		for _, rec := range recs {
			if owns(rec) {
				out = append(out, rec)
			}
		}
		return out
	}
	return &Preload{Bulk: filter(pl.Bulk), Tail: filter(pl.Tail), Want: pl.Want}
}

// StateDigest opens a preloaded directory the way a server would and
// hashes what recovery produced, so the determinism test compares the
// state a server sees and not only the generator's output.
func StateDigest(dir string) (string, error) {
	st, err := store.Open(store.Options{Dir: dir, NoSync: true, CompactEvery: -1, Logger: quietLogger})
	if err != nil {
		return "", err
	}
	defer st.Close()
	revs := st.Reviews().All() // map order: sort before hashing
	sort.Slice(revs, func(i, j int) bool { return revs[i].ID < revs[j].ID })
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, part := range []any{st.Histories().Dump(), st.Opinions().Dump(), revs, st.TrainingPairs(), st.Models()} {
		if err := enc.Encode(part); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyDir copies a flat durability directory (snapshot + WAL segments).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
