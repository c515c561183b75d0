package history

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// hotStore returns a store holding 6,000 histories of 1–5 visits on one
// entity, and their anonymous IDs.
func hotStore(b *testing.B) (*ServerStore, []string) {
	b.Helper()
	ss := NewServerStore()
	rng := rand.New(rand.NewSource(1))
	ids := make([]string, 6000)
	for i := range ids {
		ids[i] = AnonID([]byte(fmt.Sprintf("device-%d", i)), "yelp/hot")
		for v := 0; v < 1+rng.Intn(5); v++ {
			if err := ss.Append(ids[i], "yelp/hot", rec("yelp/hot", t0.Add(time.Duration(rng.Intn(90*24*60))*time.Minute))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return ss, ids
}

// BenchmarkAppendHotEntity appends one visit, later than every other,
// to an existing history of the hot entity: the upload path's cost.
func BenchmarkAppendHotEntity(b *testing.B) {
	ss, ids := hotStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ss.Append(ids[i%len(ids)], "yelp/hot", rec("yelp/hot", t0.Add(100*24*time.Hour+time.Duration(i)*time.Second))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkByEntityHot lists the hot entity's histories, as a fraud
// sweep does for every entity.
func BenchmarkByEntityHot(b *testing.B) {
	ss, _ := hotStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.ByEntity("yelp/hot")
	}
}
