package dp

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, eps := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("epsilon %v accepted", eps)
				}
			}()
			New(eps, [32]byte{1})
		}()
	}
}

func TestLaplaceNoiseScale(t *testing.T) {
	m := New(1, [32]byte{2})
	// Laplace(0, 1/ε) with ε=1 has stddev √2·b = √2.
	const n = 50000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := m.laplace(1)
		sum += v
		ss += v * v
	}
	mean := sum / n
	sd := math.Sqrt(ss/n - mean*mean)
	if math.Abs(mean) > 0.03 {
		t.Fatalf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(sd-math.Sqrt2) > 0.05 {
		t.Fatalf("noise sd = %v, want √2", sd)
	}
}

func TestCountNonNegativeAndUnbiasedish(t *testing.T) {
	m := New(1, [32]byte{3})
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := m.Count(50)
		if v < 0 {
			t.Fatal("negative released count")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-50) > 0.5 {
		t.Fatalf("released mean = %v, want ~50", mean)
	}
}

func TestHistogramPreservesShapeAtScale(t *testing.T) {
	m := New(1, [32]byte{4})
	truth := map[int]int{1: 400, 2: 200, 3: 50, 4: 10}
	rel := m.Histogram(truth)
	if len(rel) != len(truth) {
		t.Fatalf("bins = %d", len(rel))
	}
	// With counts ≫ 1/ε the ordering survives noising.
	if !(rel[1] > rel[2] && rel[2] > rel[3] && rel[3] > rel[4]) {
		t.Fatalf("shape destroyed: %v", rel)
	}
	for _, v := range rel {
		if v < 0 {
			t.Fatal("negative bin")
		}
	}
}

func TestSmallCountsGetRealNoise(t *testing.T) {
	// The privacy case that motivates the package: a dentist with 3
	// patients. Released values must actually vary.
	m := New(1, [32]byte{5})
	distinct := map[float64]bool{}
	for i := 0; i < 100; i++ {
		distinct[m.Count(3)] = true
	}
	if len(distinct) < 50 {
		t.Fatalf("only %d distinct releases of a small count", len(distinct))
	}
}

func TestFixedHistogram(t *testing.T) {
	m := New(2, [32]byte{6})
	var truth [11]int
	truth[8] = 100
	rel := m.FixedHistogram(truth)
	if rel[8] < 80 || rel[8] > 120 {
		t.Fatalf("dominant bin = %v", rel[8])
	}
	for _, v := range rel {
		if v < 0 {
			t.Fatal("negative bin")
		}
	}
}

func TestMeanBoundedAndSuppressed(t *testing.T) {
	m := New(1, [32]byte{7})
	// Large population: close to truth.
	var hits int
	for i := 0; i < 200; i++ {
		v, ok := m.Mean(4.0*1000, 1000, 0, 5)
		if !ok {
			continue
		}
		hits++
		if v < 0 || v > 5 {
			t.Fatalf("released mean %v out of bounds", v)
		}
		if math.Abs(v-4.0) > 0.5 {
			t.Fatalf("released mean %v far from 4.0 at n=1000", v)
		}
	}
	if hits < 190 {
		t.Fatalf("large population suppressed %d/200 times", 200-hits)
	}
	// Tiny population: frequently suppressed.
	suppressed := 0
	for i := 0; i < 200; i++ {
		if _, ok := m.Mean(4.0*1, 1, 0, 5); !ok {
			suppressed++
		}
	}
	if suppressed < 100 {
		t.Fatalf("n=1 suppressed only %d/200 times", suppressed)
	}
	if _, ok := m.Mean(1, 10, 5, 5); ok {
		t.Fatal("degenerate bounds accepted")
	}
}

func TestSmallerEpsilonMoreNoise(t *testing.T) {
	noisy := New(0.1, [32]byte{8})
	tight := New(5, [32]byte{8})
	var devNoisy, devTight float64
	for i := 0; i < 5000; i++ {
		devNoisy += math.Abs(noisy.Count(100) - 100)
		devTight += math.Abs(tight.Count(100) - 100)
	}
	if devNoisy <= devTight*5 {
		t.Fatalf("ε=0.1 deviation %v not ≫ ε=5 deviation %v", devNoisy, devTight)
	}
}

// One seed gives one release: bins are drawn in key order, so Go's
// random map iteration order cannot reshuffle which bin gets which draw.
func TestSameSeedSameRelease(t *testing.T) {
	truth := map[int]int{}
	for k := 1; k <= 20; k++ {
		truth[k] = 10 * k
	}
	want := New(1, [32]byte{9}).Histogram(truth)
	for i := 0; i < 50; i++ {
		got := New(1, [32]byte{9}).Histogram(truth)
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("release %d: bin %d = %v, want %v", i, k, got[k], v)
			}
		}
	}
	if other := New(1, [32]byte{10}).Histogram(truth); other[1] == want[1] {
		t.Fatalf("seeds 9 and 10 drew the same noise for bin 1: %v", other[1])
	}
}
