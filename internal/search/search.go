// Package search is the RSP's query engine, extended the way §3.1
// envisions: "For every search result, the RSP can show not only
// reviews explicitly contributed by users but also a summary of
// inferred opinions."
//
// A query is (zip code, category), mirroring the paper's measurement
// methodology. Each result carries three layers of evidence: explicit
// review statistics, the inferred-opinion summary, and the comparative
// visualization data of Figure 3.
package search

import (
	"sort"
	"strings"

	"opinions/internal/aggregate"
	"opinions/internal/history"
	"opinions/internal/reviews"
	"opinions/internal/world"
)

// Query selects entities by location and category.
type Query struct {
	Service  world.ServiceKind
	Zip      string
	Category string
	// Limit bounds the number of results (0 = all).
	Limit int
}

// Result is one ranked search result.
type Result struct {
	Entity *world.Entity

	// Explicit review evidence.
	ReviewCount int
	ReviewMean  float64

	// Inferred opinion evidence (§3.1's "summary of inferences").
	InferredCount     int
	InferredMean      float64
	InferredHistogram [11]int

	// Comparative visualization payload (Figure 3); nil when the entity
	// has no interaction histories.
	Aggregate *aggregate.EntityAggregate

	// Score is the ranking score combining all evidence.
	Score float64
}

// Engine answers queries over a catalog, joining the three evidence
// stores. All stores may be shared with concurrent writers; Engine only
// reads.
type Engine struct {
	reviews   *reviews.Store
	opinions  *aggregate.OpinionStore
	histories *history.ServerStore

	byQuery map[string][]*world.Entity
	byKey   map[string]*world.Entity
}

// inferredDiscount down-weights an inferred opinion relative to an
// explicit review when ranking: inference is useful but uncertain
// (§4.1).
const inferredDiscount = 0.7

// ratingPrior and priorWeight implement a Bayesian shrinkage toward an
// uninformative 3.0 so entities with one 5-star review do not outrank
// entities with fifty 4.5s.
const (
	ratingPrior = 3.0
	priorWeight = 5.0
)

// NewEngine indexes the catalog. Stores may be nil, in which case that
// evidence layer is absent (a reviews-only engine reproduces today's
// RSPs).
func NewEngine(catalog []*world.Entity, rev *reviews.Store, ops *aggregate.OpinionStore, hists *history.ServerStore) *Engine {
	e := &Engine{
		reviews:   rev,
		opinions:  ops,
		histories: hists,
		byQuery:   make(map[string][]*world.Entity),
		byKey:     make(map[string]*world.Entity, len(catalog)),
	}
	for _, ent := range catalog {
		e.byKey[ent.Key()] = ent
		e.byQuery[queryKey(ent.Service, ent.Zip, ent.Category)] = append(
			e.byQuery[queryKey(ent.Service, ent.Zip, ent.Category)], ent)
	}
	return e
}

func queryKey(svc world.ServiceKind, zip, cat string) string {
	return string(svc) + "|" + zip + "|" + strings.ToLower(cat)
}

// Entity returns the catalog entry for a key, or nil.
func (e *Engine) Entity(key string) *world.Entity { return e.byKey[key] }

// Search returns ranked results for the query.
func (e *Engine) Search(q Query) []Result {
	ents := e.byQuery[queryKey(q.Service, q.Zip, q.Category)]
	results := make([]Result, 0, len(ents))
	for _, ent := range ents {
		results = append(results, e.Describe(ent))
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Entity.ID < results[j].Entity.ID
	})
	if q.Limit > 0 && q.Limit < len(results) {
		results = results[:q.Limit]
	}
	return results
}

// Describe assembles the full evidence view of one entity.
func (e *Engine) Describe(ent *world.Entity) Result {
	r := Result{Entity: ent}
	if e.reviews != nil {
		r.ReviewCount = e.reviews.Count(ent.Key())
		r.ReviewMean, _ = e.reviews.Mean(ent.Key())
	}
	// The crawl universe carries pre-calibrated review counts; live
	// stores override them when present.
	if r.ReviewCount == 0 && ent.ReviewCount > 0 {
		r.ReviewCount = ent.ReviewCount
		r.ReviewMean = ent.Quality
	}
	if e.opinions != nil {
		r.InferredCount = e.opinions.Count(ent.Key())
		r.InferredMean, _ = e.opinions.Mean(ent.Key())
		r.InferredHistogram = e.opinions.Histogram(ent.Key())
	}
	if e.histories != nil {
		r.Aggregate = aggregate.ForEntity(e.histories, ent.Key())
	}
	r.Score = Score(r.ReviewCount, r.ReviewMean, r.InferredCount, r.InferredMean)
	return r
}

// Score is the ranking score of an evidence summary: the shrunk
// weighted mean rating, so evidence volume counts too.
func Score(reviewCount int, reviewMean float64, inferredCount int, inferredMean float64) float64 {
	wReview := float64(reviewCount)
	wInferred := float64(inferredCount) * inferredDiscount
	num := ratingPrior*priorWeight + reviewMean*wReview + inferredMean*wInferred
	den := priorWeight + wReview + wInferred
	return num / den
}
