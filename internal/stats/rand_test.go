package stats

import (
	"fmt"
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSplitIndependentButDeterministic(t *testing.T) {
	mk := func() (*RNG, *RNG) {
		g := NewRNG(7)
		return g.Split("alpha"), g.Split("beta")
	}
	a1, b1 := mk()
	a2, b2 := mk()
	if a1.Float64() != a2.Float64() || b1.Float64() != b2.Float64() {
		t.Fatal("Split not deterministic")
	}
	// Different labels from the same parent state should not produce the
	// same stream (labels hash differently).
	g := NewRNG(7)
	x := g.Split("alpha")
	g2 := NewRNG(7)
	y := g2.Split("gamma")
	same := true
	for i := 0; i < 8; i++ {
		if x.Float64() != y.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different labels produced identical streams")
	}
}

func TestLogNormalPositive(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := g.LogNormal(2, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestLogNormalMedianNearExpMu(t *testing.T) {
	g := NewRNG(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.LogNormal(math.Log(8), 1.2)
	}
	med, _ := Median(xs)
	if med < 6 || med > 10 {
		t.Fatalf("median = %v, want near 8", med)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(3)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = g.Exponential(0.5) // mean 2
	}
	m, _ := Mean(xs)
	if m < 1.8 || m > 2.2 {
		t.Fatalf("mean = %v, want ~2", m)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestParetoBounds(t *testing.T) {
	g := NewRNG(4)
	for i := 0; i < 1000; i++ {
		if v := g.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestZipfRange(t *testing.T) {
	g := NewRNG(5)
	counts := make(map[int]int)
	for i := 0; i < 5000; i++ {
		v := g.Zipf(10, 1.3)
		if v < 1 || v > 10 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[10] {
		t.Fatalf("Zipf not skewed: rank1=%d rank10=%d", counts[1], counts[10])
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(7)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) hit rate = %v", frac)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	g := NewRNG(8)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[g.Pick([]float64{1, 0, 3})]++
	}
	if counts[1] != 0 {
		t.Fatalf("picked zero-weight index %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestPickDegenerate(t *testing.T) {
	g := NewRNG(9)
	if got := g.Pick([]float64{0, 0}); got != 0 {
		t.Fatalf("Pick all-zero = %d", got)
	}
	if got := g.Pick([]float64{-1, -2}); got != 0 {
		t.Fatalf("Pick negative = %d", got)
	}
}

func TestDeriveSeedPureAndOrderIndependent(t *testing.T) {
	// Pure: same inputs, same seed — regardless of what else was derived.
	a := DeriveSeed(42, "user", "17")
	_ = DeriveSeed(42, "user", "16")
	_ = DeriveSeed(42, "day", "3", "u00017")
	b := DeriveSeed(42, "user", "17")
	if a != b {
		t.Fatal("DeriveSeed not pure")
	}
	// The derived RNG streams match too.
	x := Derive(42, "user", "17")
	y := Derive(42, "user", "17")
	for i := 0; i < 50; i++ {
		if x.Float64() != y.Float64() {
			t.Fatal("Derive streams diverged")
		}
	}
}

func TestDeriveSeedLabelBoundaries(t *testing.T) {
	// Concatenation across label boundaries must not collide.
	if DeriveSeed(1, "ab", "c") == DeriveSeed(1, "a", "bc") {
		t.Fatal("label boundary collision")
	}
	if DeriveSeed(1, "user") == DeriveSeed(1, "user", "") {
		t.Fatal("trailing empty label collides")
	}
	if DeriveSeed(1, "user", "1") == DeriveSeed(2, "user", "1") {
		t.Fatal("seed ignored")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	// Nearby label values should produce visibly different streams.
	seen := make(map[int64]bool)
	for i := 0; i < 10000; i++ {
		s := DeriveSeed(7, "user", fmt.Sprintf("%d", i))
		if seen[s] {
			t.Fatalf("seed collision at %d", i)
		}
		seen[s] = true
	}
}
