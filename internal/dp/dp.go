// Package dp adds differential privacy to the aggregates the RSP
// publishes.
//
// Section 4.2 claims that "if an RSP uses histograms of inferred ratings
// or visualizations of aggregate user interactions to export its
// inferences to users, no information about any individual user is
// revealed" — but the paper itself cites Narayanan–Shmatikov [24, 25]
// for how aggregate releases de-anonymize. Exact small-count histograms
// (a dentist with three patients!) do leak. This package closes that
// gap: published histograms and counters pass through a Laplace
// mechanism calibrated to sensitivity 1 per user per bin, giving
// ε-differential privacy per released aggregate.
//
// A Mechanism draws its noise from a ChaCha8 stream keyed by a 32-byte
// seed, and draws in a fixed order, so one seed gives one release. The
// caller derives the seed with a keyed PRF of what is released: every
// release of one aggregate is then the same sample, and a reader who
// asks again learns nothing new by averaging.
package dp

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Mechanism is a Laplace noiser with a fixed privacy budget per release.
type Mechanism struct {
	// Epsilon is the privacy parameter; smaller is more private.
	// Typical published-aggregate budgets are 0.5–2.
	Epsilon float64
	rng     *rand.Rand
}

// New returns a mechanism with the given budget drawing from the
// ChaCha8 stream keyed by seed. Epsilon must be positive.
func New(epsilon float64, seed [32]byte) *Mechanism {
	if epsilon <= 0 {
		panic("dp: epsilon must be positive")
	}
	return &Mechanism{Epsilon: epsilon, rng: rand.New(rand.NewChaCha8(seed))}
}

// laplace draws Laplace(0, b) noise.
func (m *Mechanism) laplace(b float64) float64 {
	u := m.rng.Float64() - 0.5
	return -b * math.Copysign(1, u) * math.Log(1-2*math.Abs(u))
}

// Count releases a single counter with sensitivity 1. Results are
// clamped at zero (a negative count is meaningless to readers and
// clamping does not weaken the guarantee).
func (m *Mechanism) Count(true_ int) float64 {
	v := float64(true_) + m.laplace(1/m.Epsilon)
	if v < 0 {
		return 0
	}
	return v
}

// Histogram releases a histogram where each user contributes to at most
// one bin (sensitivity 1 for the whole histogram under add/remove-one),
// e.g. the visits-per-user histogram of Figure 3(a) or the inferred-
// rating histogram. Bins are noised independently, in key order, and
// clamped at zero.
func (m *Mechanism) Histogram(counts map[int]int) map[int]float64 {
	out := make(map[int]float64, len(counts))
	for _, k := range SortedKeys(counts) {
		out[k] = m.Count(counts[k])
	}
	return out
}

// SortedKeys returns the keys of a histogram in ascending order: the
// order every draw over a map must follow, since map iteration order
// is random and a seed must give one release.
func SortedKeys[V any](h map[int]V) []int {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// FixedHistogram is Histogram for array-shaped histograms (the 11-bin
// rating histogram).
func (m *Mechanism) FixedHistogram(counts [11]int) [11]float64 {
	var out [11]float64
	for i, c := range counts {
		out[i] = m.Count(c)
	}
	return out
}

// Mean releases a mean of values bounded in [lo, hi] from n
// contributors, using the standard bounded-mean decomposition: noised
// sum (sensitivity hi−lo) over noised count (sensitivity 1), each with
// ε/2. Returns 0, false when the (noised) count is too small to release
// anything meaningful (< 3), which also avoids tiny-population leakage.
func (m *Mechanism) Mean(sum float64, n int, lo, hi float64) (float64, bool) {
	if hi <= lo {
		return 0, false
	}
	half := m.Epsilon / 2
	noisedN := float64(n) + m.laplace(1/half)
	if noisedN < 3 {
		return 0, false
	}
	noisedSum := sum + m.laplace((hi-lo)/half)
	v := noisedSum / noisedN
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v, true
}
