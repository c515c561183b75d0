// Package stats provides the small statistical toolkit used throughout
// the repository: empirical CDFs and quantiles, histograms with linear or
// logarithmic bins, correlation, mean absolute error, and deterministic
// samplers for the heavy-tailed distributions that review counts and
// user activity follow.
//
// Everything here is pure computation over float64 slices; no package in
// this repository does statistics any other way, so experiment outputs
// are reproducible bit-for-bit given a seed.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns ErrEmpty for empty
// input and an error for q outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// Median returns the median of xs, or ErrEmpty.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or ErrEmpty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// CDFPoint is one point of an empirical CDF: Fraction of the sample is ≤
// Value.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF computes the empirical cumulative distribution of xs, returning one
// point per distinct value in ascending order. The final point always has
// Fraction == 1.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var out []CDFPoint
	for i := 0; i < len(sorted); i++ {
		// Emit a point at the last occurrence of each distinct value so
		// Fraction is P(X <= v).
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{Value: sorted[i], Fraction: float64(i+1) / n})
	}
	return out
}

// FractionAtLeast returns the fraction of samples ≥ v.
func FractionAtLeast(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples xs and ys. It returns an error if the lengths differ, the
// input is shorter than 2, or either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Histogram is a binned count of a sample.
type Histogram struct {
	// Edges has len(Counts)+1 entries; bin i covers [Edges[i], Edges[i+1]).
	// The final bin is closed on the right.
	Edges  []float64
	Counts []int
	// Underflow and Overflow count samples outside [Edges[0], Edges[last]].
	Underflow int
	Overflow  int
}

// NewHistogram bins xs into nbins equal-width bins spanning [lo, hi].
// It panics if nbins < 1 or hi <= lo, which are programming errors.
func NewHistogram(xs []float64, lo, hi float64, nbins int) *Histogram {
	if nbins < 1 {
		panic("stats: NewHistogram with nbins < 1")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	h := &Histogram{
		Edges:  make([]float64, nbins+1),
		Counts: make([]int, nbins),
	}
	w := (hi - lo) / float64(nbins)
	for i := range h.Edges {
		h.Edges[i] = lo + w*float64(i)
	}
	h.Edges[nbins] = hi // avoid accumulation error on the last edge
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// NewLogHistogram bins positive xs into nbins log-spaced bins spanning
// [lo, hi]; lo must be > 0.
func NewLogHistogram(xs []float64, lo, hi float64, nbins int) *Histogram {
	if nbins < 1 {
		panic("stats: NewLogHistogram with nbins < 1")
	}
	if lo <= 0 || hi <= lo {
		panic("stats: NewLogHistogram needs 0 < lo < hi")
	}
	h := &Histogram{
		Edges:  make([]float64, nbins+1),
		Counts: make([]int, nbins),
	}
	llo, lhi := math.Log(lo), math.Log(hi)
	w := (lhi - llo) / float64(nbins)
	for i := range h.Edges {
		h.Edges[i] = math.Exp(llo + w*float64(i))
	}
	h.Edges[0] = lo
	h.Edges[nbins] = hi
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add counts one sample.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	if x < h.Edges[0] {
		h.Underflow++
		return
	}
	if x > h.Edges[n] {
		h.Overflow++
		return
	}
	// Binary search for the bin; the final edge closes the last bin.
	i := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the first index with Edges[i] >= x.
	if i < len(h.Edges) && h.Edges[i] == x {
		// x sits exactly on an edge: it belongs to the bin starting at x,
		// except the final edge which closes the last bin.
		if i == n {
			i = n - 1
		}
	} else {
		i--
	}
	if i < 0 {
		i = 0
	}
	h.Counts[i]++
}

// Total returns the number of in-range samples counted.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// MAE returns the mean absolute error between predictions and truth.
func MAE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred)), nil
}
