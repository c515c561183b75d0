package history

import (
	"crypto/rand"
	"errors"
	"fmt"
	mathrand "math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"opinions/internal/interaction"
)

var t0 = time.Date(2016, 3, 1, 12, 0, 0, 0, time.UTC)

func rec(entity string, at time.Time) interaction.Record {
	return interaction.Record{Entity: entity, Kind: interaction.VisitKind, Start: at, Duration: 30 * time.Minute}
}

func TestAnonIDDeterministicAndDistinct(t *testing.T) {
	ru := []byte("device-secret-ru")
	a := AnonID(ru, "yelp/r1")
	b := AnonID(ru, "yelp/r1")
	c := AnonID(ru, "yelp/r2")
	if a != b {
		t.Fatal("AnonID not deterministic")
	}
	if a == c {
		t.Fatal("different entities share an AnonID")
	}
	other := AnonID([]byte("other-secret"), "yelp/r1")
	if a == other {
		t.Fatal("different devices share an AnonID")
	}
	if len(a) != 64 {
		t.Fatalf("AnonID length = %d, want 64 hex chars", len(a))
	}
}

func TestAnonIDUnlinkableAcrossEntities(t *testing.T) {
	// No common prefix/suffix structure across a user's IDs: check that
	// IDs for many entities from one Ru look pairwise unrelated (no
	// shared 8-char substring at the same position beyond chance).
	ru := make([]byte, 32)
	if _, err := rand.Read(ru); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 50)
	for i := range ids {
		ids[i] = AnonID(ru, fmt.Sprintf("yelp/e%d", i))
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			match := 0
			for k := 0; k < 64; k++ {
				if ids[i][k] == ids[j][k] {
					match++
				}
			}
			// Expected matches ≈ 64/16 = 4; flag anything over 20.
			if match > 20 {
				t.Fatalf("ids %d and %d agree on %d/64 positions", i, j, match)
			}
		}
	}
}

func TestClientStoreAddPurge(t *testing.T) {
	cs := NewClientStore(7 * 24 * time.Hour)
	cs.Add(rec("yelp/a", t0))
	cs.Add(rec("yelp/a", t0.Add(24*time.Hour)))
	cs.Add(rec("yelp/b", t0.Add(2*24*time.Hour)))
	if cs.Len() != 3 {
		t.Fatalf("Len = %d", cs.Len())
	}
	dropped := cs.Purge(t0.Add(8 * 24 * time.Hour))
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (only the first record is older than 7d)", dropped)
	}
	if got := cs.ForEntity("yelp/a"); len(got) != 1 {
		t.Fatalf("remaining for a = %d", len(got))
	}
	// Purging everything removes the entity from the listing.
	cs.Purge(t0.Add(100 * 24 * time.Hour))
	if got := cs.Entities(); len(got) != 0 {
		t.Fatalf("entities after full purge = %v", got)
	}
}

func TestClientStoreForget(t *testing.T) {
	cs := NewClientStore(0) // default retention
	cs.Add(rec("yelp/a", t0))
	cs.Add(rec("yelp/a", t0))
	cs.Add(rec("yelp/b", t0))
	if n := cs.Forget("yelp/a"); n != 2 {
		t.Fatalf("Forget = %d, want 2", n)
	}
	if got := cs.Entities(); len(got) != 1 || got[0] != "yelp/b" {
		t.Fatalf("entities = %v", got)
	}
	if n := cs.Forget("yelp/zzz"); n != 0 {
		t.Fatalf("Forget missing = %d", n)
	}
}

func TestClientStoreEntitiesSorted(t *testing.T) {
	cs := NewClientStore(0)
	for _, k := range []string{"z/1", "a/1", "m/1"} {
		cs.Add(rec(k, t0))
	}
	got := cs.Entities()
	if got[0] != "a/1" || got[1] != "m/1" || got[2] != "z/1" {
		t.Fatalf("entities = %v", got)
	}
}

func TestServerStoreAppendAndByEntity(t *testing.T) {
	ss := NewServerStore()
	ru1, ru2 := []byte("ru-1"), []byte("ru-2")
	id1 := AnonID(ru1, "yelp/a")
	id2 := AnonID(ru2, "yelp/a")
	if err := ss.Append(id1, "yelp/a", rec("yelp/a", t0)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Append(id1, "yelp/a", rec("yelp/a", t0.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := ss.Append(id2, "yelp/a", rec("yelp/a", t0)); err != nil {
		t.Fatal(err)
	}
	hists := ss.ByEntity("yelp/a")
	if len(hists) != 2 {
		t.Fatalf("histories = %d, want 2", len(hists))
	}
	total := 0
	for _, h := range hists {
		total += len(h.Records)
	}
	if total != 3 {
		t.Fatalf("records = %d, want 3", total)
	}
}

func TestServerStoreEntityMismatch(t *testing.T) {
	ss := NewServerStore()
	id := AnonID([]byte("ru"), "yelp/a")
	if err := ss.Append(id, "yelp/a", rec("yelp/a", t0)); err != nil {
		t.Fatal(err)
	}
	err := ss.Append(id, "yelp/b", rec("yelp/b", t0))
	if !errors.Is(err, ErrEntityMismatch) {
		t.Fatalf("err = %v, want ErrEntityMismatch", err)
	}
}

func TestServerStoreRejectsEmptyIDs(t *testing.T) {
	ss := NewServerStore()
	if err := ss.Append("", "yelp/a", rec("yelp/a", t0)); err == nil {
		t.Error("empty anonID accepted")
	}
	if err := ss.Append("id", "", rec("", t0)); err == nil {
		t.Error("empty entity accepted")
	}
}

func TestServerStoreDrop(t *testing.T) {
	ss := NewServerStore()
	id1 := AnonID([]byte("ru1"), "yelp/a")
	id2 := AnonID([]byte("ru2"), "yelp/a")
	_ = ss.Append(id1, "yelp/a", rec("yelp/a", t0))
	_ = ss.Append(id2, "yelp/a", rec("yelp/a", t0))
	ss.Drop(id1, "yelp/b") // bound elsewhere: skipped
	if got := ss.ByEntity("yelp/a"); len(got) != 2 {
		t.Fatalf("drop naming the wrong entity removed a history: %d left", len(got))
	}
	ss.Drop(id1, "yelp/a")
	if got := ss.ByEntity("yelp/a"); len(got) != 1 || got[0].AnonID != id2 {
		t.Fatalf("after drop: %d histories", len(got))
	}
	ss.Drop(id2, "yelp/a")
	if got := ss.Entities(); len(got) != 0 {
		t.Fatalf("entities after dropping all = %v", got)
	}
	ss.Drop(id2, "yelp/a")           // entity has no index left: must not panic
	ss.Drop("nonexistent", "yelp/a") // must not panic
}

// A dropped history's ID stays bound to its entity, in a store
// restored from a dump too: it may start a new history there, never on
// another entity.
func TestServerStoreDropKeepsBinding(t *testing.T) {
	ss := NewServerStore()
	id := AnonID([]byte("ru1"), "yelp/a")
	kept := AnonID([]byte("ru2"), "yelp/a")
	for _, x := range []string{id, kept} {
		if err := ss.Append(x, "yelp/a", rec("yelp/a", t0)); err != nil {
			t.Fatal(err)
		}
	}
	ss.Drop(id, "yelp/a")
	dump := ss.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump after a drop holds %d entries, want the history and the swept binding", len(dump))
	}
	restored := NewServerStore()
	if err := restored.Restore(dump); err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats(); got != (Stats{Histories: 1, Records: 1, Entities: 1}) {
		t.Fatalf("restored stats %+v: a swept binding counted as a history", got)
	}
	if got := restored.Dump(); !reflect.DeepEqual(got, dump) {
		t.Fatalf("dump of the restored store\n got %+v\nwant %+v", got, dump)
	}
	for name, s := range map[string]*ServerStore{"live": ss, "restored": restored} {
		if err := s.Append(id, "yelp/b", rec("yelp/b", t0)); !errors.Is(err, ErrEntityMismatch) {
			t.Fatalf("%s: re-binding a dropped ID = %v, want ErrEntityMismatch", name, err)
		}
		if err := s.Append(id, "yelp/a", rec("yelp/a", t0)); err != nil {
			t.Fatalf("%s: re-upload to the same entity after drop: %v", name, err)
		}
		if got := s.ByEntity("yelp/a"); len(got) != 2 {
			t.Fatalf("%s: after re-upload: %d histories", name, len(got))
		}
		if got := s.Dump(); len(got) != 2 || len(got[0].Records) != 1 || len(got[1].Records) != 1 {
			t.Fatalf("%s: dump after re-upload still carries the swept binding: %+v", name, got)
		}
	}
}

// Restore takes ownership of the histories it is handed: the restored
// histories share the input's record arrays rather than copying them.
func TestServerStoreRestoreSharesRecords(t *testing.T) {
	dump := []EntityHistory{
		{AnonID: "id-1", Entity: "yelp/a", Records: []interaction.Record{rec("yelp/a", t0), rec("yelp/a", t0.Add(time.Hour))}},
		{AnonID: "id-2", Entity: "yelp/b", Records: []interaction.Record{rec("yelp/b", t0)}},
	}
	ss := NewServerStore()
	if err := ss.Restore(dump); err != nil {
		t.Fatal(err)
	}
	for _, in := range dump {
		got := ss.ByEntity(in.Entity)
		if len(got) != 1 || len(got[0].Records) != len(in.Records) || &got[0].Records[0] != &in.Records[0] {
			t.Fatalf("restored %s does not share the input's records", in.AnonID)
		}
	}
}

func TestServerStoreStats(t *testing.T) {
	ss := NewServerStore()
	_ = ss.Append(AnonID([]byte("r1"), "yelp/a"), "yelp/a", rec("yelp/a", t0))
	_ = ss.Append(AnonID([]byte("r1"), "yelp/b"), "yelp/b", rec("yelp/b", t0))
	_ = ss.Append(AnonID([]byte("r2"), "yelp/a"), "yelp/a", rec("yelp/a", t0))
	s := ss.Stats()
	if s.Histories != 3 || s.Records != 3 || s.Entities != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestServerStoreConcurrentAppend(t *testing.T) {
	ss := NewServerStore()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := AnonID([]byte(fmt.Sprintf("ru-%d", i)), "yelp/a")
			for j := 0; j < 20; j++ {
				if err := ss.Append(id, "yelp/a", rec("yelp/a", t0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	s := ss.Stats()
	if s.Histories != 50 || s.Records != 1000 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestClientStoreConcurrent(t *testing.T) {
	cs := NewClientStore(time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs.Add(rec(fmt.Sprintf("yelp/e%d", i%5), t0))
			cs.ForEntity("yelp/e0")
			cs.Purge(t0)
		}(i)
	}
	wg.Wait()
	if cs.Len() != 20 {
		t.Fatalf("Len = %d", cs.Len())
	}
}

// sameIndex reports whether the store's maintained index of every
// entity equals the index rebuilt from its ByEntity histories.
func sameIndex(t *testing.T, ss *ServerStore, when string) {
	t.Helper()
	for _, key := range ss.Entities() {
		hists := ss.ByEntity(key)
		if !slices.IsSortedFunc(hists, func(a, b *EntityHistory) int { return strings.Compare(a.AnonID, b.AnonID) }) {
			t.Fatalf("%s: ByEntity(%s) not in AnonID order", when, key)
		}
		want := IndexHistories(hists)
		ss.ReadVisits(key, func(got *VisitIndex) {
			if len(got.Histories) != len(want.Histories) || !slices.Equal(got.Arrivals, want.Arrivals) {
				t.Fatalf("%s: %s index has %d histories, %d arrivals; rebuilt has %d, %d",
					when, key, len(got.Histories), len(got.Arrivals), len(want.Histories), len(want.Arrivals))
			}
			for i, g := range got.Histories {
				w := want.Histories[i]
				if g.h.AnonID != w.h.AnonID || g.Visits != w.Visits || g.DistKm != w.DistKm {
					t.Fatalf("%s: %s entry %d = %s %d %v, rebuilt %s %d %v",
						when, key, i, g.h.AnonID, g.Visits, g.DistKm, w.h.AnonID, w.Visits, w.DistKm)
				}
			}
		})
	}
}

func TestServerStoreIndexMatchesRebuild(t *testing.T) {
	rng := mathrand.New(mathrand.NewSource(1))
	ss := NewServerStore()
	type bound struct{ id, entity string }
	var ids []bound
	for i := 0; i < 2000; i++ {
		entity := fmt.Sprintf("yelp/e%d", rng.Intn(5))
		id := AnonID([]byte{byte(rng.Intn(80))}, entity)
		r := rec(entity, t0.Add(time.Duration(rng.Intn(500))*time.Minute))
		r.DistanceFrom = rng.Float64() * 20000
		if rng.Intn(4) == 0 {
			r.Kind = interaction.CallKind
		}
		if err := ss.Append(id, entity, r); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, bound{id, entity})
	}
	sameIndex(t, ss, "after Append")
	for i := 0; i < 100; i++ {
		b := ids[rng.Intn(len(ids))]
		ss.Drop(b.id, b.entity)
	}
	sameIndex(t, ss, "after Drop")

	// Restore must not rely on the dump's AnonID order.
	dump := ss.Dump()
	rng.Shuffle(len(dump), func(i, j int) { dump[i], dump[j] = dump[j], dump[i] })
	other := NewServerStore()
	if err := other.Restore(dump); err != nil {
		t.Fatal(err)
	}
	sameIndex(t, other, "after Restore")
	if other.Stats() != ss.Stats() {
		t.Fatalf("restored stats %+v, want %+v", other.Stats(), ss.Stats())
	}
}

// A snapshot that fails validation leaves the store as it was.
func TestServerStoreRestoreRejectsWithoutChange(t *testing.T) {
	ss := NewServerStore()
	if err := ss.Append("id-1", "yelp/a", rec("yelp/a", t0)); err != nil {
		t.Fatal(err)
	}
	before := ss.Stats()
	dup := []EntityHistory{{AnonID: "x", Entity: "yelp/b"}, {AnonID: "x", Entity: "yelp/b"}}
	if err := ss.Restore(dup); err == nil {
		t.Fatal("duplicate anonymous ID restored")
	}
	if err := ss.Restore([]EntityHistory{{AnonID: "y"}}); err == nil {
		t.Fatal("history without an entity restored")
	}
	if ss.Stats() != before {
		t.Fatalf("stats after rejected restores = %+v, want %+v", ss.Stats(), before)
	}
}
