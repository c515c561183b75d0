package search

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"opinions/internal/aggregate"
	"opinions/internal/history"
	"opinions/internal/interaction"
	"opinions/internal/simclock"
	"opinions/internal/store"
	"opinions/internal/world"
)

// oracleBuild is the Figure-3 aggregate computed from scratch: the
// record-by-record loop and sorted-arrival group dedup that Describe
// ran before the store maintained a visit index. Describe must agree
// with it exactly.
func oracleBuild(entityKey string, hists []*history.EntityHistory) *aggregate.EntityAggregate {
	agg := &aggregate.EntityAggregate{
		Entity:                 entityKey,
		Users:                  len(hists),
		VisitsPerUser:          make(map[int]int),
		MeanDistanceKmByVisits: make(map[int]float64),
	}
	distSum := make(map[int]float64)
	distN := make(map[int]int)
	visitors, repeaters := 0, 0
	var arrivals []time.Time
	for _, h := range hists {
		visits := 0
		var dist float64
		for _, r := range h.Records {
			if r.Kind != interaction.VisitKind {
				continue
			}
			visits++
			dist += r.DistanceFrom / 1000
			arrivals = append(arrivals, r.Start)
		}
		if visits == 0 {
			continue
		}
		visitors++
		if visits > 1 {
			repeaters++
		}
		agg.VisitsPerUser[visits]++
		distSum[visits] += dist / float64(visits)
		distN[visits]++
	}
	for k, s := range distSum {
		agg.MeanDistanceKmByVisits[k] = s / float64(distN[k])
	}
	agg.RawInteractions = len(arrivals)
	if len(arrivals) > 0 {
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].Before(arrivals[j]) })
		start, size := arrivals[0], 1
		for _, t := range arrivals[1:] {
			if t.Sub(start) <= aggregate.GroupWindow {
				size++
				continue
			}
			agg.EffectiveInteractions += aggregate.GroupWeight(size)
			start, size = t, 1
		}
		agg.EffectiveInteractions += aggregate.GroupWeight(size)
	}
	if visitors > 0 {
		agg.RepeatFraction = float64(repeaters) / float64(visitors)
	}
	return agg
}

// TestDescribeMatchesOracle drives seeded schedules of appends (visits,
// calls and payments, so some histories have no visits), attempts to
// re-bind an ID to another entity, per-entity sweeps, training pairs
// and retrains, dump→restore round trips and WAL replays through a
// durable store, and after every step checks each entity's
// Describe aggregate against oracleBuild over ByEntity, with
// reflect.DeepEqual: the maintained index must give the recomputed
// answer bit for bit. Every close/Open replay — its stripes applied in
// parallel — must rebuild exactly the state the live store held.
func TestDescribeMatchesOracle(t *testing.T) {
	var catalog []*world.Entity
	for i := 0; i < 4; i++ {
		catalog = append(catalog, &world.Entity{
			ID: world.EntityID(fmt.Sprintf("e%d", i)), Service: world.Yelp, Zip: "z", Category: "cafe",
		})
	}
	// The second zone is unnamed, as a decoded timestamp's zone is, so a
	// replayed state compares equal to the live one.
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600)}
	kinds := []interaction.Kind{interaction.VisitKind, interaction.VisitKind, interaction.VisitKind,
		interaction.CallKind, interaction.PaymentKind}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := store.Options{
				Dir: dir, NoSync: true, CompactEvery: -1,
				Clock:  simclock.NewSim(t0),
				Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			}
			st, err := store.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { st.Close() }()
			type bound struct{ id, entity string }
			var known []bound
			upload := func(id, ent string) error {
				// Starts fall on a coarse grid over a few hours, so
				// groups form, chain and tie.
				start := t0.Add(time.Duration(rng.Intn(60)) * 5 * time.Minute).In(zones[rng.Intn(len(zones))])
				visit := interaction.Record{
					Entity: ent, Kind: kinds[rng.Intn(len(kinds))], Start: start,
					Duration: 30 * time.Minute, DistanceFrom: rng.Float64() * 25000,
				}
				err := st.Commit(&store.Record{Kind: store.KindUpload, AnonID: id, Entity: ent, Visit: &visit})
				if err == nil {
					known = append(known, bound{id, ent})
				}
				return err
			}
			holds := func(id, ent string) bool {
				for _, h := range st.Histories().ByEntity(ent) {
					if h.AnonID == id {
						return true
					}
				}
				return false
			}
			var dropped, refused, retrains int
			for step := 0; step < 300; step++ {
				var what string
				switch p := rng.Intn(100); {
				case p < 70:
					ent := catalog[rng.Intn(len(catalog))].Key()
					id := history.AnonID([]byte{byte(rng.Intn(60))}, ent)
					err = upload(id, ent)
					what = "append"
				case p < 75 && len(known) > 0:
					// A known ID uploading to another entity: refused, whether
					// its history was swept or not, and across restores and
					// replays, since snapshots carry swept IDs' bindings.
					b := known[rng.Intn(len(known))]
					other := catalog[rng.Intn(len(catalog))].Key()
					if other == b.entity {
						continue
					}
					err = upload(b.id, other)
					if errors.Is(err, history.ErrEntityMismatch) {
						refused++
						err = nil
					} else {
						err = fmt.Errorf("%s re-bound from %s to %s: %v", b.id, b.entity, other, err)
					}
					what = "rebind"
				case p < 84:
					// A sweep of one entity names some of its histories, an ID
					// bound elsewhere and one never seen; only the first go.
					ent := catalog[rng.Intn(len(catalog))].Key()
					hists := st.Histories().ByEntity(ent)
					drop := map[string]bool{}
					var ids []string
					for n := 1 + rng.Intn(3); n > 0 && len(hists) > 0; n-- {
						id := hists[rng.Intn(len(hists))].AnonID
						drop[id] = true
						ids = append(ids, id)
					}
					for _, b := range known {
						if b.entity != ent {
							ids = append(ids, b.id)
							break
						}
					}
					ids = append(ids, "never-seen")
					before := st.Histories().Stats().Histories
					if err = st.Commit(&store.Record{Kind: store.KindSweep, Entity: ent, Dropped: ids}); err == nil {
						if got, want := st.Histories().Stats().Histories, before-len(drop); got != want {
							err = fmt.Errorf("%d histories after dropping %d of %d, want %d", got, len(drop), before, want)
						}
						for id := range drop {
							if holds(id, ent) {
								err = fmt.Errorf("%s still on %s after its sweep", id, ent)
							}
						}
					}
					dropped += len(drop)
					what = "sweep"
				case p < 90:
					if st.TrainingPairs() >= 4 && rng.Intn(2) == 0 {
						err = st.Commit(&store.Record{Kind: store.KindRetrain})
						retrains++
						what = "retrain"
						break
					}
					err = st.Commit(&store.Record{Kind: store.KindTrainPair,
						Features: []float64{rng.Float64(), rng.Float64()}, TrainRating: float64(rng.Intn(5)), Category: "cafe"})
					what = "train pair"
				case p < 94:
					err = st.Restore(st.Snapshot())
					what = "restore"
				case p < 97:
					err = st.Compact()
					what = "compact"
				default:
					live := st.Snapshot()
					if err = st.Close(); err == nil {
						st, err = store.Open(opts)
					}
					if err == nil && !reflect.DeepEqual(st.Snapshot(), live) {
						err = fmt.Errorf("replayed state differs from the live one:\n got %+v\nwant %+v", st.Snapshot(), live)
					}
					what = "reopen"
				}
				if err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
				hists := st.Histories()
				e := NewEngine(catalog, nil, nil, hists)
				for _, ent := range catalog {
					byEntity := hists.ByEntity(ent.Key())
					if !slices.IsSortedFunc(byEntity, func(a, b *history.EntityHistory) int {
						return strings.Compare(a.AnonID, b.AnonID)
					}) {
						t.Fatalf("step %d (%s): ByEntity(%s) not in AnonID order", step, what, ent.Key())
					}
					var want *aggregate.EntityAggregate
					if len(byEntity) > 0 {
						want = oracleBuild(ent.Key(), byEntity)
					}
					if got := e.Describe(ent).Aggregate; !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%s): %s aggregate\n got %+v\nwant %+v", step, what, ent.Key(), got, want)
					}
					if got := aggregate.Build(ent.Key(), byEntity); len(byEntity) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%s): %s Build\n got %+v\nwant %+v", step, what, ent.Key(), got, want)
					}
				}
			}
			if dropped == 0 || refused == 0 || retrains == 0 {
				t.Fatalf("schedule dropped %d histories, refused %d re-bindings, ran %d retrains; want each > 0", dropped, refused, retrains)
			}
		})
	}
}
