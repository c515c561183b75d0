package search

import (
	"testing"
	"time"

	"opinions/internal/aggregate"
	"opinions/internal/history"
	"opinions/internal/interaction"
	"opinions/internal/reviews"
	"opinions/internal/world"
)

var t0 = time.Date(2016, 4, 1, 19, 0, 0, 0, time.UTC)

func catalog() []*world.Entity {
	return []*world.Entity{
		{ID: "a", Service: world.Yelp, Zip: "48104", Category: "chinese", Quality: 4},
		{ID: "b", Service: world.Yelp, Zip: "48104", Category: "chinese", Quality: 3},
		{ID: "c", Service: world.Yelp, Zip: "48104", Category: "thai", Quality: 5},
		{ID: "d", Service: world.Yelp, Zip: "99999", Category: "chinese", Quality: 5},
	}
}

func TestSearchFiltersByQuery(t *testing.T) {
	e := NewEngine(catalog(), nil, nil, nil)
	got := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "chinese"})
	if len(got) != 2 {
		t.Fatalf("results = %d, want 2", len(got))
	}
	for _, r := range got {
		if r.Entity.Category != "chinese" || r.Entity.Zip != "48104" {
			t.Fatalf("wrong result %+v", r.Entity)
		}
	}
	if got := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "sushi"}); len(got) != 0 {
		t.Fatalf("empty category returned %d", len(got))
	}
}

func TestSearchCaseInsensitiveCategory(t *testing.T) {
	e := NewEngine(catalog(), nil, nil, nil)
	got := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "Chinese"})
	if len(got) != 2 {
		t.Fatalf("case-insensitive search returned %d", len(got))
	}
}

func TestRankingPrefersEvidence(t *testing.T) {
	rev := reviews.NewStore()
	// Entity b: many solid reviews. Entity a: one perfect review.
	for i := 0; i < 40; i++ {
		_, _ = rev.Post(reviews.Review{Entity: "yelp/b", Rating: 4.5, Time: t0})
	}
	_, _ = rev.Post(reviews.Review{Entity: "yelp/a", Rating: 5, Time: t0})
	e := NewEngine(catalog(), rev, nil, nil)
	got := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "chinese"})
	if got[0].Entity.ID != "b" {
		t.Fatalf("top result = %s; shrinkage should prefer 40×4.5 over 1×5.0", got[0].Entity.ID)
	}
}

func TestInferredOpinionsBoostRanking(t *testing.T) {
	rev := reviews.NewStore()
	ops := aggregate.NewOpinionStore()
	// Both entities have one mediocre review; entity a additionally has
	// many strong inferred opinions.
	_, _ = rev.Post(reviews.Review{Entity: "yelp/a", Rating: 3, Time: t0})
	_, _ = rev.Post(reviews.Review{Entity: "yelp/b", Rating: 3, Time: t0})
	for i := 0; i < 30; i++ {
		ops.Add("yelp/a", 4.6)
	}
	e := NewEngine(catalog(), rev, ops, nil)
	got := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "chinese"})
	if got[0].Entity.ID != "a" {
		t.Fatal("inferred opinions did not influence ranking")
	}
	if got[0].InferredCount != 30 {
		t.Fatalf("InferredCount = %d", got[0].InferredCount)
	}
}

func TestDescribeIncludesAggregate(t *testing.T) {
	hists := history.NewServerStore()
	id := history.AnonID([]byte("ru"), "yelp/a")
	for i := 0; i < 3; i++ {
		_ = hists.Append(id, "yelp/a", interaction.Record{
			Entity: "yelp/a", Kind: interaction.VisitKind,
			Start: t0.Add(time.Duration(i*7*24) * time.Hour), Duration: time.Hour, DistanceFrom: 2000,
		})
	}
	e := NewEngine(catalog(), nil, nil, hists)
	r := e.Describe(e.Entity("yelp/a"))
	if r.Aggregate == nil {
		t.Fatal("no aggregate for entity with histories")
	}
	if r.Aggregate.VisitsPerUser[3] != 1 {
		t.Fatalf("aggregate histogram = %v", r.Aggregate.VisitsPerUser)
	}
	rb := e.Describe(e.Entity("yelp/b"))
	if rb.Aggregate != nil {
		t.Fatal("aggregate invented for entity without histories")
	}
}

func TestCalibratedReviewCountFallback(t *testing.T) {
	// Crawl-universe entities carry pre-calibrated counts.
	ents := []*world.Entity{
		{ID: "x", Service: world.Yelp, Zip: "1", Category: "c", Quality: 4.2, ReviewCount: 77},
	}
	e := NewEngine(ents, reviews.NewStore(), nil, nil)
	r := e.Describe(ents[0])
	if r.ReviewCount != 77 {
		t.Fatalf("ReviewCount = %d, want calibrated 77", r.ReviewCount)
	}
	if r.ReviewMean != 4.2 {
		t.Fatalf("ReviewMean = %v", r.ReviewMean)
	}
}

func TestSearchLimit(t *testing.T) {
	e := NewEngine(catalog(), nil, nil, nil)
	got := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "chinese", Limit: 1})
	if len(got) != 1 {
		t.Fatalf("limited results = %d", len(got))
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	e := NewEngine(catalog(), reviews.NewStore(), nil, nil)
	a := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "chinese"})
	b := e.Search(Query{Service: world.Yelp, Zip: "48104", Category: "chinese"})
	for i := range a {
		if a[i].Entity.ID != b[i].Entity.ID {
			t.Fatal("search order not deterministic")
		}
	}
}

func TestEntityLookup(t *testing.T) {
	e := NewEngine(catalog(), nil, nil, nil)
	if e.Entity("yelp/a") == nil {
		t.Fatal("known entity not found")
	}
	if e.Entity("yelp/zzz") != nil {
		t.Fatal("unknown entity found")
	}
}
