// Quickstart: open a repository of opinions, feed it one device's life,
// and search with both explicit and inferred evidence.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"opinions/internal/rspclient"
	"opinions/internal/rspserver"
	"opinions/internal/search"
	"opinions/internal/simclock"
	"opinions/internal/trace"
	"opinions/internal/world"
)

func main() {
	// 1. A synthetic city: entities with locations, phones, latent
	// quality; users with homes, workplaces, and personas.
	city := world.BuildCity(world.CityConfig{Seed: 42, NumUsers: 40})

	// 2. The repository: reviews + anonymous histories + inferred
	// opinions + token issuance behind one server.
	clock := simclock.NewSim(simclock.Epoch)
	srv, err := rspserver.New(rspserver.Config{
		Catalog:   city.Entities,
		Clock:     clock,
		KeyBits:   1024,
		TokenRate: 1 << 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. A classic explicit review — what today's RSPs collect.
	best := city.EntitiesByCategory("restaurant")[0]
	if _, err := srv.PostReview(best.Key(), "alice", 4.5, "wonderful noodles"); err != nil {
		log.Fatal(err)
	}

	// 4. One user's device runs the agent for a month: sensing, local
	// entity mapping, anonymous uploads.
	sim := trace.New(city, trace.Config{Seed: 43, Days: 30})
	agent := rspclient.NewAgent(rspclient.Config{
		DeviceID: "demo-device", Author: "u0", Seed: 7, MixMax: time.Hour,
	}, &rspclient.LocalTransport{Server: srv, Clock: clock})
	if err := agent.Bootstrap(); err != nil {
		log.Fatal(err)
	}
	u := city.Users[0]
	detected := 0
	for d := 0; d < sim.Days(); d++ {
		for _, dl := range sim.SimulateDate(d) {
			if dl.User != u.ID {
				continue
			}
			res, err := agent.ProcessDay(dl)
			if err != nil {
				log.Fatal(err)
			}
			detected += res.Detected
		}
	}
	if _, err := agent.FlushUploads(sim.Start().AddDate(0, 0, 31)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device detected %d interactions in 30 days; repository now holds:\n", detected)
	rev, ops, hists := srv.Stores()
	hs := hists.Stats()
	fmt.Printf("  %d entities, %d reviews, %d histories (%d records), %d inferred opinions\n\n",
		len(srv.Catalog()), rev.TotalReviews(), hs.Histories, hs.Records, ops.Total())

	// 5. Search: results carry review counts AND interaction summaries.
	results := srv.Engine().Search(search.Query{Service: world.Yelp, Zip: "48104", Category: "restaurant", Limit: 5})
	fmt.Println("top restaurants:")
	for i, r := range results {
		fmt.Printf("  %d. %-28s score %.2f  reviews %d  inferred %d  users-observed %d\n",
			i+1, r.Entity.Name, r.Score, r.ReviewCount, r.InferredCount, usersObserved(r))
	}

	// 6. Transparency (§5): the user can always see what the app knows.
	fmt.Println("\ndevice transparency screen:")
	for _, v := range agent.Inferences() {
		fmt.Printf("  %-40s %d records\n", v.Entity, v.Records)
	}
}

func usersObserved(r search.Result) int {
	if r.Aggregate == nil {
		return 0
	}
	return r.Aggregate.Users
}
