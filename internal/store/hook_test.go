package store

import (
	"sync"
	"testing"

	"opinions/internal/reviews"
	"opinions/internal/simclock"
)

// The commit hook must fire once per applied record — after the apply,
// so a hook that reads store state sees the commit it is told about —
// for every kind, a sweep record included.
func TestCommitHookFires(t *testing.T) {
	s := mustOpen(t, Options{})
	var mu sync.Mutex
	var kinds []Kind
	var entities []string
	s.SetCommitHook(func(rec *Record) {
		mu.Lock()
		defer mu.Unlock()
		kinds = append(kinds, rec.Kind)
		entities = append(entities, rec.Entity)
		// The apply already ran: the upload's history is visible.
		if rec.Kind == KindUpload && s.Histories().Stats().Records == 0 {
			t.Error("hook observed pre-apply state")
		}
	})

	if err := s.Commit(uploadRec("anon-1", "yelp/a", 4, "k1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(&Record{Kind: KindReview, Review: &reviews.Review{Entity: "yelp/b", Rating: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(&Record{Kind: KindSweep}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(kinds) != 3 {
		t.Fatalf("hook fired %d times, want 3 (%v)", len(kinds), kinds)
	}
	if kinds[0] != KindUpload || kinds[1] != KindReview || kinds[2] != KindSweep {
		t.Fatalf("kinds = %v", kinds)
	}
	if entities[0] != "yelp/a" {
		t.Fatalf("upload entity = %q", entities[0])
	}
}

// The restore hook fires once per successful Restore — on both the
// memory-only and the WAL-backed paths — and stops after being
// cleared.
func TestRestoreHookFires(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"memory", Options{}},
		{"wal", Options{Dir: "", NoSync: true}}, // Dir set below
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "wal" {
				tc.opts.Dir = t.TempDir()
			}
			s := mustOpen(t, tc.opts)
			defer s.Close()
			fired := 0
			s.SetRestoreHook(func() { fired++ })
			commitN(t, s, 2)
			if fired != 0 {
				t.Fatalf("restore hook fired on commit: %d", fired)
			}
			// Restore owns the snapshot it is handed: each call gets its own.
			if err := s.Restore(s.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if fired != 1 {
				t.Fatalf("fired = %d after restore, want 1", fired)
			}
			s.SetRestoreHook(nil)
			if err := s.Restore(s.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if fired != 1 {
				t.Fatalf("hook fired after clear: %d", fired)
			}
		})
	}
}

// Clearing the hook stops notifications; recovery replay at Open never
// sees one (the server registers its hook after Open).
func TestCommitHookClearAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, NoSync: true, CompactEvery: -1})
	fired := 0
	s.SetCommitHook(func(*Record) { fired++ })
	commitN(t, s, 2)
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	s.SetCommitHook(nil)
	commitN(t, s, 1)
	if fired != 2 {
		t.Fatalf("hook fired after clear: %d", fired)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen replays the log; no hook is registered, nothing can fire.
	r := mustOpen(t, Options{Dir: dir, NoSync: true, Clock: simclock.NewSim(simclock.Epoch)})
	defer r.Close()
	if r.Histories().Stats().Records == 0 {
		t.Fatal("recovery lost uploads")
	}
}
