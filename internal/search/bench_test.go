package search

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"opinions/internal/aggregate"
	"opinions/internal/history"
	"opinions/internal/interaction"
	"opinions/internal/reviews"
	"opinions/internal/world"
)

// benchEngine builds an engine over 2,000 entities with evidence spread
// across the stores.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	var catalog []*world.Entity
	rev := reviews.NewStore()
	ops := aggregate.NewOpinionStore()
	hists := history.NewServerStore()
	for i := 0; i < 2000; i++ {
		e := &world.Entity{
			ID: world.EntityID(fmt.Sprintf("e%04d", i)), Service: world.Yelp,
			Zip: fmt.Sprintf("z%d", i%10), Category: "cafe", Quality: 3,
		}
		catalog = append(catalog, e)
		if i%3 == 0 {
			rev.Seed(e.Key(), 5+i%40, 3.5, t0)
		}
		if i%2 == 0 {
			for k := 0; k < 1+i%8; k++ {
				ops.Add(e.Key(), 3.5)
			}
		}
		if i%5 == 0 {
			id := fmt.Sprintf("anon-%d", i)
			_ = hists.Append(id, e.Key(), interaction.Record{
				Entity: e.Key(), Kind: interaction.VisitKind, Start: t0,
			})
		}
	}
	return NewEngine(catalog, rev, ops, hists)
}

func BenchmarkSearch200Results(b *testing.B) {
	e := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(Query{Service: world.Yelp, Zip: "z3", Category: "cafe"})
	}
}

func BenchmarkDescribe(b *testing.B) {
	e := benchEngine(b)
	ent := e.Entity("yelp/e0000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Describe(ent)
	}
}

// BenchmarkDescribeHotEntity describes one entity holding 6,000
// histories of 1–5 visits each — the shape of the bench world's most
// popular entity, whose view every cache miss rebuilds.
func BenchmarkDescribeHotEntity(b *testing.B) {
	ent := &world.Entity{ID: "hot", Service: world.Yelp, Zip: "z0", Category: "cafe", Quality: 3}
	ops := aggregate.NewOpinionStore()
	hists := history.NewServerStore()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6000; i++ {
		id := history.AnonID([]byte(fmt.Sprintf("device-%d", i)), ent.Key())
		for v := 0; v < 1+rng.Intn(5); v++ {
			_ = hists.Append(id, ent.Key(), interaction.Record{
				Entity: ent.Key(), Kind: interaction.VisitKind,
				Start:        t0.Add(time.Duration(rng.Intn(90*24*60)) * time.Minute),
				DistanceFrom: rng.Float64() * 20000,
			})
		}
		ops.Add(ent.Key(), rng.Float64()*5)
	}
	e := NewEngine([]*world.Entity{ent}, nil, ops, hists)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Describe(ent)
	}
}
