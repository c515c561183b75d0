package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileRejectsBadQ(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Quantile([]float64{1}, q); err == nil {
			t.Errorf("Quantile(q=%v) did not error", q)
		}
	}
}

func TestQuantileSingleElement(t *testing.T) {
	got, err := Quantile([]float64{7}, 0.99)
	if err != nil || got != 7 {
		t.Fatalf("Quantile single = %v, %v", got, err)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m, _ := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m, _ := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

func TestCDFShape(t *testing.T) {
	pts := CDF([]float64{1, 1, 2, 5})
	if len(pts) != 3 {
		t.Fatalf("CDF has %d points, want 3 distinct", len(pts))
	}
	if pts[0].Value != 1 || math.Abs(pts[0].Fraction-0.5) > 1e-12 {
		t.Fatalf("first point %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Fraction != 1 {
		t.Fatalf("last fraction = %v, want 1", last.Fraction)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		pts := CDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return len(xs) == 0 || pts[len(pts)-1].Fraction == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFractionAtLeast(t *testing.T) {
	xs := []float64{10, 60, 70}
	if got := FractionAtLeast(xs, 50); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("FractionAtLeast = %v", got)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, %v", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("negative Pearson = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance not rejected")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0, 0.5, 1, 1.5, 2}, 0, 2, 2)
	// Bins: [0,1) and [1,2]; 2 falls in the closed last bin.
	if h.Counts[0] != 2 || h.Counts[1] != 3 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Underflow != 0 || h.Overflow != 0 {
		t.Fatalf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram([]float64{-1, 3}, 0, 2, 2)
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Fatalf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	if h.Total() != 0 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestHistogramConservesSamples(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		h := NewHistogram(xs, -100, 100, 13)
		return h.Total()+h.Underflow+h.Overflow == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogHistogramEdges(t *testing.T) {
	h := NewLogHistogram([]float64{1, 10, 100, 1000}, 1, 1024, 10)
	if h.Edges[0] != 1 || h.Edges[len(h.Edges)-1] != 1024 {
		t.Fatalf("edges = %v", h.Edges)
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	for i := 1; i < len(h.Edges); i++ {
		if h.Edges[i] <= h.Edges[i-1] {
			t.Fatalf("edges not increasing: %v", h.Edges)
		}
	}
}

func TestMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{2, 2, 5}
	mae, err := MAE(pred, truth)
	if err != nil || math.Abs(mae-1) > 1e-12 {
		t.Fatalf("MAE = %v, %v", mae, err)
	}
	if _, err := MAE([]float64{1}, []float64{}); err == nil {
		t.Error("MAE length mismatch not rejected")
	}
}

func TestQuantileMatchesSortedExtremes(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		lo, _ := Quantile(xs, 0)
		hi, _ := Quantile(xs, 1)
		return lo == sorted[0] && hi == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
