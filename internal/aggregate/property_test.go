package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"opinions/internal/history"
	"opinions/internal/interaction"
)

// Property: GroupWeight(1) == 1, it grows with size, and stays strictly
// sublinear — a party of n is never worth n independent opinions.
func TestGroupWeightProperties(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%63) + 2 // 2..64
		w := GroupWeight(n)
		return w > GroupWeight(n-1) || n == 2 && w > 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 64; n++ {
		if w := GroupWeight(n); w >= float64(n) {
			t.Fatalf("GroupWeight(%d) = %v, not sublinear", n, w)
		}
	}
}

// Property: for any arrival pattern, effective ≤ raw, effective ≥
// number of clusters, and cluster sizes sum to raw.
func TestDedupGroupsInvariants(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		var hists []*history.EntityHistory
		for i, off := range offsets {
			hists = append(hists, &history.EntityHistory{
				AnonID: string(rune('a' + i%26)),
				Entity: "e",
				Records: []interaction.Record{{
					Entity: "e", Kind: interaction.VisitKind,
					Start: t0.Add(time.Duration(off) * time.Minute),
				}},
			})
		}
		clusters, raw, eff := DedupGroups(hists, GroupWindow)
		if raw != len(offsets) {
			return false
		}
		if eff > float64(raw)+1e-9 || eff < float64(len(clusters))-1e-9 {
			return false
		}
		total := 0
		for _, c := range clusters {
			total += c.Size
		}
		return total == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: OpinionStore clamps everything into [0,5] and the histogram
// always sums to Count.
func TestOpinionStoreInvariants(t *testing.T) {
	f := func(ratings []float64) bool {
		os := NewOpinionStore()
		for _, r := range ratings {
			if math.IsNaN(r) {
				continue
			}
			os.Add("e", r)
		}
		h := os.Histogram("e")
		sum := 0
		for _, c := range h {
			sum += c
		}
		if sum != os.Count("e") {
			return false
		}
		if m, ok := os.Mean("e"); ok && (m < 0 || m > 5) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The running sum and bins OpinionStore keeps must equal a loop over
// the ratings exactly, after random Adds and again after Dump→Restore.
func TestOpinionStoreTotalsMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	os := NewOpinionStore()
	want := map[string][]float64{}
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("e%d", rng.Intn(40))
		r := rng.Float64()*6 - 0.5 // some out of range, to be clamped
		os.Add(key, r)
		want[key] = append(want[key], math.Min(math.Max(r, 0), 5))
	}
	check := func(os *OpinionStore, when string) {
		t.Helper()
		for key, rs := range want {
			var sum float64
			var bins [11]int
			for _, r := range rs {
				sum += r
				bins[min(int(r*2), 10)]++
			}
			if m, ok := os.Mean(key); !ok || m != sum/float64(len(rs)) {
				t.Fatalf("%s: Mean(%s) = %v, loop gives %v", when, key, m, sum/float64(len(rs)))
			}
			if n := os.Count(key); n != len(rs) {
				t.Fatalf("%s: Count(%s) = %d, want %d", when, key, n, len(rs))
			}
			if h := os.Histogram(key); h != bins {
				t.Fatalf("%s: Histogram(%s) = %v, loop gives %v", when, key, h, bins)
			}
		}
	}
	check(os, "after Add")
	restored := NewOpinionStore()
	restored.Restore(os.Dump())
	check(restored, "after Restore")
}
