package aggregate

import (
	"fmt"
	"math/rand"
	"testing"

	"opinions/internal/history"
)

// BenchmarkBuildHotEntity builds the aggregate of 6,000 histories of
// 1–5 visits each from scratch, as callers holding a history list do.
func BenchmarkBuildHotEntity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var hists []*history.EntityHistory
	for i := 0; i < 6000; i++ {
		var visits [][2]float64
		for v := 0; v < 1+rng.Intn(5); v++ {
			visits = append(visits, [2]float64{rng.Float64() * 90, rng.Float64() * 20})
		}
		hists = append(hists, hist(fmt.Sprintf("anon-%05d", i), "yelp/hot", visits...))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build("yelp/hot", hists)
	}
}
