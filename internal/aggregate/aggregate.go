// Package aggregate computes the server-side summaries the paper's
// redesigned search interface exposes: histograms of inferred ratings,
// and the comparative visualizations of Figure 3 — visits-per-user
// histograms (3a) and distance-travelled-versus-visits curves (3b) —
// with explicit accounting for group visits so that "the collective
// recommendation power of groups does not artificially inflate the
// aggregate activity associated with an entity" (§4.1).
//
// Everything here consumes only anonymous per-(user, entity) histories
// and anonymous inferred-rating uploads; no user identity exists at this
// layer by construction.
package aggregate

import (
	"math"
	"sync"
	"time"

	"opinions/internal/history"
	"opinions/internal/stats"
	"opinions/internal/stripe"
)

// OpinionStore accumulates anonymously uploaded inferred ratings per
// entity. It is the server-side sink for the client pipeline's output.
// OpinionStore is safe for concurrent use.
//
// Ratings are striped by entity key so a search summarizing one
// entity's opinions never waits behind an upload landing on another.
type OpinionStore struct {
	shards [stripe.NumShards]opinionShard
}

type opinionShard struct {
	mu      sync.RWMutex
	ratings map[string]*ratings
}

// ratings is one entity's inferred ratings with the running totals
// Count, Mean and Histogram read. Ratings are only ever added (a sweep
// drops histories, not opinions) or restored wholesale, so the totals
// never need to be taken back.
type ratings struct {
	all []float64
	// sum is Σ all, added in Add order: the same additions a loop over
	// all makes, so Mean is bit-identical to a recomputed mean.
	sum float64
	// bins are int32 to keep ratings within an 80-byte allocation: there
	// is one per entity.
	bins [11]int32
}

func (rs *ratings) add(r float64) {
	rs.all = append(rs.all, r)
	rs.sum += r
	rs.bins[bin(r)]++
}

// bin is r's half-star histogram bin; exact 5s share the last one.
func bin(r float64) int {
	return min(max(int(r*2), 0), 10)
}

// NewOpinionStore returns an empty store.
func NewOpinionStore() *OpinionStore {
	s := &OpinionStore{}
	for i := range s.shards {
		s.shards[i].ratings = make(map[string]*ratings)
	}
	return s
}

func (os *OpinionStore) shard(entityKey string) *opinionShard {
	return &os.shards[stripe.Index(entityKey)]
}

// Add records one inferred rating (clamped to [0, 5]) for an entity.
func (os *OpinionStore) Add(entityKey string, rating float64) {
	if rating < 0 {
		rating = 0
	}
	if rating > 5 {
		rating = 5
	}
	sh := os.shard(entityKey)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rs := sh.ratings[entityKey]
	if rs == nil {
		rs = &ratings{}
		sh.ratings[entityKey] = rs
	}
	rs.add(rating)
}

// Total returns the number of inferred ratings across all entities.
func (os *OpinionStore) Total() int {
	n := 0
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.RLock()
		for _, rs := range sh.ratings {
			n += len(rs.all)
		}
		sh.mu.RUnlock()
	}
	return n
}

// get returns an entity's ratings under the shard's read lock, as a
// copy of the totals; all is shared and must not be written.
func (os *OpinionStore) get(entityKey string) ratings {
	sh := os.shard(entityKey)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if rs := sh.ratings[entityKey]; rs != nil {
		return *rs
	}
	return ratings{}
}

// Count returns how many inferred ratings an entity has.
func (os *OpinionStore) Count(entityKey string) int {
	return len(os.get(entityKey).all)
}

// Mean returns the mean inferred rating and whether any exist.
func (os *OpinionStore) Mean(entityKey string) (float64, bool) {
	rs := os.get(entityKey)
	if len(rs.all) == 0 {
		return 0, false
	}
	return rs.sum / float64(len(rs.all)), true
}

// Histogram returns counts of inferred ratings in 11 half-star bins
// [0, 0.5), [0.5, 1.0), …, [5.0, 5.0]; the last bin holds exact 5s.
func (os *OpinionStore) Histogram(entityKey string) [11]int {
	var h [11]int
	for i, n := range os.get(entityKey).bins {
		h[i] = int(n)
	}
	return h
}

// Dump returns a deep copy of all ratings by entity, for snapshotting.
func (os *OpinionStore) Dump() map[string][]float64 {
	out := make(map[string][]float64)
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.RLock()
		for k, rs := range sh.ratings {
			out[k] = append([]float64(nil), rs.all...)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Restore replaces the store's contents with the dumped ratings,
// recomputing each entity's totals in the dumped order.
func (os *OpinionStore) Restore(dumped map[string][]float64) {
	for i := range os.shards {
		sh := &os.shards[i]
		sh.mu.Lock()
		sh.ratings = make(map[string]*ratings)
		sh.mu.Unlock()
	}
	for k, v := range dumped {
		rs := &ratings{all: make([]float64, 0, len(v))}
		for _, r := range v {
			rs.add(r)
		}
		sh := os.shard(k)
		sh.mu.Lock()
		sh.ratings[k] = rs
		sh.mu.Unlock()
	}
}

// GroupWindow is the co-arrival window within which visits to the same
// entity are treated as one group (§4.1). Anonymous channels hide user
// identity, but co-arrival is observable server-side from record
// timestamps.
const GroupWindow = 12 * time.Minute

// GroupWeight is the effective opinion weight of a detected group of
// size n: a party of four is stronger evidence than one person but far
// less than four independent diners.
func GroupWeight(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 + math.Log2(float64(n))/4
}

// VisitCluster is one detected co-arrival group.
type VisitCluster struct {
	Start time.Time // the first arrival, in UTC
	Size  int
}

// DedupGroups clusters the visit records of an entity's histories by
// co-arrival and returns the clusters plus raw and effective interaction
// counts.
func DedupGroups(hists []*history.EntityHistory, window time.Duration) (clusters []VisitCluster, raw int, effective float64) {
	if window <= 0 {
		window = GroupWindow
	}
	arrivals := history.IndexHistories(hists).Arrivals
	effective = groups(arrivals, window, func(start int64, size int) {
		clusters = append(clusters, VisitCluster{Start: time.Unix(0, start).UTC(), Size: size})
	})
	return clusters, len(arrivals), effective
}

// groups walks ascending arrivals (Unix nanoseconds), cuts them into
// co-arrival groups — each holds every arrival within window of its
// first — and returns the groups' summed GroupWeight. Each group is
// also passed to each, when non-nil.
func groups(arrivals []int64, window time.Duration, each func(start int64, size int)) (effective float64) {
	if len(arrivals) == 0 {
		return 0
	}
	cut := func(start int64, size int) {
		if each != nil {
			each(start, size)
		}
		effective += GroupWeight(size)
	}
	start, size := arrivals[0], 1
	for _, t := range arrivals[1:] {
		if t-start <= int64(window) {
			size++
			continue
		}
		cut(start, size)
		start, size = t, 1
	}
	cut(start, size)
	return effective
}

// EntityAggregate is the comparative-visualization payload for one
// entity: the data behind Figure 3 plus interaction totals.
type EntityAggregate struct {
	Entity string
	// Users is the number of anonymous histories (≈ distinct users).
	Users int
	// VisitsPerUser is Figure 3(a)'s histogram: how many users visited
	// exactly k times.
	VisitsPerUser map[int]int
	// MeanDistanceKmByVisits is Figure 3(b): for users with exactly k
	// visits, the mean distance travelled per visit, in km.
	MeanDistanceKmByVisits map[int]float64
	// RawInteractions and EffectiveInteractions expose group dedup
	// (§4.1); Effective ≤ Raw when groups are present.
	RawInteractions       int
	EffectiveInteractions float64
	// RepeatFraction is the share of visiting users who came back.
	RepeatFraction float64
}

// Build computes the aggregate for one entity from its anonymous
// histories.
func Build(entityKey string, hists []*history.EntityHistory) *EntityAggregate {
	return fold(entityKey, history.IndexHistories(hists))
}

// ForEntity computes the aggregate of an entity from the store's
// maintained visit index, or returns nil when the entity has no
// histories. It equals Build over the entity's ByEntity histories bit
// for bit, without copying or sorting them.
func ForEntity(hists *history.ServerStore, entityKey string) *EntityAggregate {
	var agg *EntityAggregate
	hists.ReadVisits(entityKey, func(v *history.VisitIndex) { agg = fold(entityKey, v) })
	return agg
}

// fold computes the aggregate in one pass over a visit index: the
// histories in index order, then the arrivals in time order.
func fold(entityKey string, v *history.VisitIndex) *EntityAggregate {
	agg := &EntityAggregate{
		Entity:                 entityKey,
		Users:                  len(v.Histories),
		VisitsPerUser:          make(map[int]int),
		MeanDistanceKmByVisits: make(map[int]float64),
	}
	// users[k] counts the histories with k visits and distSum[k] sums
	// their mean distances, in index order.
	var users []int
	var distSum []float64
	for _, h := range v.Histories {
		k := h.Visits
		if k == 0 {
			continue
		}
		if k >= len(users) {
			users = append(users, make([]int, k+1-len(users))...)
			distSum = append(distSum, make([]float64, k+1-len(distSum))...)
		}
		users[k]++
		distSum[k] += h.DistKm / float64(k)
	}
	visitors := 0
	for k, n := range users {
		if n == 0 {
			continue
		}
		visitors += n
		agg.VisitsPerUser[k] = n
		agg.MeanDistanceKmByVisits[k] = distSum[k] / float64(n)
	}
	agg.RawInteractions = len(v.Arrivals)
	agg.EffectiveInteractions = groups(v.Arrivals, GroupWindow, nil)
	if visitors > 0 {
		agg.RepeatFraction = float64(visitors-agg.VisitsPerUser[1]) / float64(visitors)
	}
	return agg
}

// DistanceVisitCorrelation returns the Pearson correlation between visit
// count and mean travel distance across an entity's users — the signal
// Figure 3(b) visualizes ("the average distance travelled is more
// strongly correlated with the number of visits for dentist B than
// dentist C"). Returns ok=false when fewer than 3 users visited.
func DistanceVisitCorrelation(hists []*history.EntityHistory) (float64, bool) {
	var visits, dists []float64
	for _, h := range history.IndexHistories(hists).Histories {
		if h.Visits > 0 {
			visits = append(visits, float64(h.Visits))
			dists = append(dists, h.DistKm/float64(h.Visits))
		}
	}
	if len(visits) < 3 {
		return 0, false
	}
	r, err := stats.Pearson(visits, dists)
	if err != nil {
		return 0, false
	}
	return r, true
}
