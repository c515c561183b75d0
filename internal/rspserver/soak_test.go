package rspserver

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/simclock"
	"opinions/internal/world"
)

// TestConcurrentMixedLoad hammers the full API from many goroutines at
// once: searches, reviews, token issuance, anonymous uploads, training,
// sweeps. It is the data-race and consistency soak for the whole server
// (run with -race in CI).
func TestConcurrentMixedLoad(t *testing.T) {
	catalog := make([]*world.Entity, 0, 40)
	for i := 0; i < 40; i++ {
		catalog = append(catalog, &world.Entity{
			ID: world.EntityID(fmt.Sprintf("e%02d", i)), Service: world.Yelp,
			Zip: "z", Category: "cafe", Name: fmt.Sprintf("Cafe %d", i), Quality: 3,
		})
	}
	srv, err := New(Config{
		Catalog: catalog, KeyBits: 512, Clock: simclock.NewSim(simclock.Epoch),
		TokenRate: 1 << 20, TokenPeriod: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 16
	const opsPerWorker = 30
	var uploads, reviewsPosted int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			device := fmt.Sprintf("dev-%d", w)
			for op := 0; op < opsPerWorker; op++ {
				entity := fmt.Sprintf("yelp/e%02d", (w*opsPerWorker+op)%40)
				switch op % 4 {
				case 0: // search
					var results []WireResult
					resp := getJSON(t, ts.URL+"/api/search?service=yelp&zip=z&category=cafe&limit=5", &results)
					if resp.StatusCode != 200 {
						t.Errorf("search status %d", resp.StatusCode)
						return
					}
				case 1: // review
					resp := postJSON(t, ts.URL+"/api/reviews", PostReviewRequest{
						Entity: entity, Author: device, Rating: 3.5,
					}, nil)
					if resp.StatusCode != 201 {
						t.Errorf("review status %d", resp.StatusCode)
						return
					}
					atomic.AddInt64(&reviewsPosted, 1)
				case 2: // token + upload
					tok := fetchToken(t, ts.URL, device)
					resp := postJSON(t, ts.URL+"/api/upload", UploadRequest{
						AnonID: fmt.Sprintf("anon-%s-%s", device, entity),
						Entity: entity,
						Record: &WireRecord{Kind: "visit", Start: simclock.Epoch, DurationS: 1800, DistanceM: 500},
						Token:  tok,
						Key:    fmt.Sprintf("key-%s-%d", device, op),
					}, nil)
					if resp.StatusCode != 202 {
						t.Errorf("upload status %d", resp.StatusCode)
						return
					}
					atomic.AddInt64(&uploads, 1)
				case 3: // stats + sweep
					if resp := getJSON(t, ts.URL+"/api/stats", nil); resp.StatusCode != 200 {
						t.Errorf("stats status %d", resp.StatusCode)
						return
					}
					if resp := postJSON(t, ts.URL+"/api/fraud/sweep", nil, nil); resp.StatusCode != 200 {
						t.Errorf("sweep status %d", resp.StatusCode)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	rev, _, hists := srv.Stores()
	if int64(rev.TotalReviews()) != reviewsPosted {
		t.Fatalf("reviews: stored %d, posted %d", rev.TotalReviews(), reviewsPosted)
	}
	// Fraud sweeps run concurrently with uploads and may legitimately
	// drop short bursty histories; stored records never exceed uploads.
	if int64(hists.Stats().Records) > uploads {
		t.Fatalf("records %d exceed uploads %d", hists.Stats().Records, uploads)
	}
}
