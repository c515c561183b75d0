package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source with samplers for the
// distributions this repository's synthetic workloads use. It wraps
// math/rand with an explicit seed so every experiment is reproducible.
//
// RNG is not safe for concurrent use; give each goroutine its own via
// Split.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent RNG from this one, keyed by label, so
// sub-simulations stay deterministic regardless of how much randomness
// their siblings consume.
//
// Split consumes state from the parent, so the derived stream depends
// on the order of Split calls. When a stream must be reconstructible
// from the seed and labels alone — the streaming world's per-user
// regenerability contract — use Derive instead.
func (g *RNG) Split(label string) *RNG {
	var h int64 = 1469598103934665603
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ g.r.Int63())
}

// DeriveSeed hashes a base seed and a label path into an independent
// seed. Unlike Split it is a pure function — no parent state is
// consumed — so DeriveSeed(s, "user", "17") is the same value no matter
// how many sibling streams were derived before it, in what order, or in
// which process. This is the primitive behind O(1)-memory streaming
// generation: any user, day, or shard is regenerable in isolation.
func DeriveSeed(seed int64, labels ...string) int64 {
	// FNV-1a over the seed's 8 bytes, then each label with a 0xFF
	// separator (0xFF never appears in UTF-8 text, so label boundaries
	// cannot collide: ("ab","c") hashes differently from ("a","bc")).
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= prime64
	}
	for _, label := range labels {
		h ^= 0xFF
		h *= prime64
		for i := 0; i < len(label); i++ {
			h ^= uint64(label[i])
			h *= prime64
		}
	}
	return int64(h)
}

// Derive returns an RNG seeded with DeriveSeed(seed, labels...): a
// stream that is a pure function of its seed and label path.
func Derive(seed int64, labels ...string) *RNG {
	return NewRNG(DeriveSeed(seed, labels...))
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Normal returns a sample from N(mean, sd²).
func (g *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is N(mu, sigma²). Review
// counts and interaction counts on real services are approximately
// log-normal with a heavy right tail, which is why Figure 1 in the paper
// uses log-scaled axes.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Exponential returns a sample from Exp(rate); the mean is 1/rate.
// It panics if rate <= 0.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential with non-positive rate")
	}
	return g.r.ExpFloat64() / rate
}

// Pareto returns a sample from a Pareto distribution with minimum xm and
// shape alpha. It panics if xm <= 0 or alpha <= 0.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("stats: Pareto needs positive xm and alpha")
	}
	u := 1 - g.r.Float64() // in (0, 1]
	return xm / math.Pow(u, 1/alpha)
}

// Zipf returns a sample in [1, n] from a Zipf distribution with exponent
// s ≥ 1. Rank 1 is the most likely outcome. It panics if n < 1.
func (g *RNG) Zipf(n int, s float64) int {
	if n < 1 {
		panic("stats: Zipf with n < 1")
	}
	z := rand.NewZipf(g.r, math.Max(s, 1.0001), 1, uint64(n-1))
	return int(z.Uint64()) + 1
}

// Shuffle randomly permutes n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Pick returns a uniformly random index weighted by weights; weights must
// be non-negative with a positive sum, otherwise Pick returns 0.
func (g *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}
