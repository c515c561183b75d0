// Command worldgen generates a synthetic universe and dumps a summary,
// streams it as JSONL, or emits partitioned shards for the cluster.
//
//	worldgen -world city -users 100
//	worldgen -world city -users 1000000 -json            # streamed, O(1) memory
//	worldgen -world city -users 1000000 -shards 3 -out shards/
//	worldgen -world city -users 1000000 -shards 3 -shard 1 -out shards/
//	worldgen -world directory -scale 0.1 -json > directory.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"opinions/internal/stats"
	"opinions/internal/stripe"
	"opinions/internal/world"
)

func main() {
	var (
		universe = flag.String("world", "city", "city | directory")
		users    = flag.Int("users", 400, "city users")
		scale    = flag.Float64("scale", 0.2, "directory scale")
		seed     = flag.Int64("seed", 1, "seed")
		asJSON   = flag.Bool("json", false, "stream records as JSONL instead of a summary")
		shards   = flag.Int("shards", 0, "partition the city into N shards aligned with the cluster ring")
		shard    = flag.Int("shard", -1, "emit only this shard index (default: all)")
		outDir   = flag.String("out", "", "output directory for shard files")
	)
	flag.Parse()

	switch *universe {
	case "city":
		city := world.OpenCity(world.CityConfig{Seed: *seed, NumUsers: *users})
		if *shards > 0 {
			if *outDir == "" {
				log.Fatal("-shards requires -out DIR")
			}
			if err := emitShards(city, *shards, *shard, *outDir); err != nil {
				log.Fatal(err)
			}
			return
		}
		if *asJSON {
			// Stream one record per line; the city's population is never
			// resident, so this works at any -users.
			enc := json.NewEncoder(os.Stdout)
			for _, e := range city.Entities {
				if err := enc.Encode(e); err != nil {
					log.Fatal(err)
				}
			}
			return
		}
		fmt.Printf("city: %d users, %d entities\n", city.NumUsers(), len(city.Entities))
		for _, cat := range world.PhysicalCategories {
			fmt.Printf("  %-12s %4d entities\n", cat, len(city.EntitiesByCategory(cat)))
		}
		classes := map[world.ParticipationClass]int{}
		city.EachUser(func(_ int, u *world.User) bool {
			classes[u.Class]++
			return true
		})
		fmt.Printf("  participation: %d heavy / %d occasional / %d lurkers (1/9/90 rule)\n",
			classes[world.HeavyContributor], classes[world.OccasionalContributor], classes[world.Lurker])
	case "directory":
		dir := world.BuildDirectory(world.DirectoryConfig{Seed: *seed, NumZips: 50, Scale: *scale, InteractionEntities: 1000})
		if *asJSON {
			// One record per Encode call: nothing accumulates, whatever
			// the directory scale.
			enc := json.NewEncoder(os.Stdout)
			for _, kind := range world.ReviewServices {
				for _, e := range dir.Entities[kind] {
					if err := enc.Encode(e); err != nil {
						log.Fatal(err)
					}
				}
			}
			return
		}
		fmt.Printf("directory: %d zips\n", len(dir.Zips))
		for _, kind := range world.ReviewServices {
			med, _ := stats.Median(dir.ReviewCounts(kind))
			fmt.Printf("  %-14s %6d entities, median %3.0f reviews, %d categories\n",
				kind, len(dir.Entities[kind]), med, len(dir.Profiles[kind].Categories))
		}
		for _, kind := range world.InteractionServices {
			fmt.Printf("  %-14s %6d entities (interaction service)\n", kind, len(dir.Entities[kind]))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -world %q\n", *universe)
		os.Exit(2)
	}
}

// shardManifest describes a shard emission so downstream consumers
// (agents) can re-derive the exact same world.
type shardManifest struct {
	Seed     int64 `json:"seed"`
	Users    int   `json:"users"`
	Shards   int   `json:"shards"`
	Entities int   `json:"entities"`
}

// userRecord is one line of a users shard file. It is membership, not
// state: the full user is regenerable from (seed, index), so shards
// stay small at any population size.
type userRecord struct {
	Index int          `json:"i"`
	ID    world.UserID `json:"id"`
	Class int          `json:"class"`
}

// emitShards writes per-partition JSONL shard files under dir. Users go
// to shard stripe.IndexN(id, n) and entities to stripe.IndexN(key, n) —
// the same modulo placement cluster.Ring.Partition routes by, so shard
// p contains exactly the records cluster node p owns. Records stream
// one at a time; memory is O(1) in the population.
func emitShards(city *world.City, n, only int, dir string) error {
	if only >= n {
		return fmt.Errorf("-shard %d out of range for %d shards", only, n)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	type sink struct {
		users, entities *json.Encoder
		uw, ew          *bufio.Writer
		files           []*os.File
		nUsers, nEnts   int
	}
	sinks := make([]*sink, n)
	for p := 0; p < n; p++ {
		if only >= 0 && p != only {
			continue
		}
		uf, err := os.Create(filepath.Join(dir, fmt.Sprintf("shard-%03d.users.jsonl", p)))
		if err != nil {
			return err
		}
		ef, err := os.Create(filepath.Join(dir, fmt.Sprintf("shard-%03d.entities.jsonl", p)))
		if err != nil {
			uf.Close()
			return err
		}
		uw, ew := bufio.NewWriter(uf), bufio.NewWriter(ef)
		sinks[p] = &sink{
			users: json.NewEncoder(uw), entities: json.NewEncoder(ew),
			uw: uw, ew: ew, files: []*os.File{uf, ef},
		}
	}

	var emitErr error
	city.EachUser(func(i int, u *world.User) bool {
		p := stripe.IndexN(string(u.ID), n)
		s := sinks[p]
		if s == nil {
			return true
		}
		if err := s.users.Encode(userRecord{Index: i, ID: u.ID, Class: int(u.Class)}); err != nil {
			emitErr = err
			return false
		}
		s.nUsers++
		return true
	})
	if emitErr != nil {
		return emitErr
	}
	for _, e := range city.Entities {
		p := stripe.IndexN(e.Key(), n)
		s := sinks[p]
		if s == nil {
			continue
		}
		if err := s.entities.Encode(e); err != nil {
			return err
		}
		s.nEnts++
	}

	for p, s := range sinks {
		if s == nil {
			continue
		}
		for _, w := range []*bufio.Writer{s.uw, s.ew} {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		for _, f := range s.files {
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "shard %03d: %d users, %d entities\n", p, s.nUsers, s.nEnts)
	}

	mf, err := os.Create(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return err
	}
	defer mf.Close()
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	return enc.Encode(shardManifest{
		Seed: city.Seed(), Users: city.NumUsers(), Shards: n, Entities: len(city.Entities),
	})
}
