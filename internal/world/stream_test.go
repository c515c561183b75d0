package world

import (
	"testing"

	"opinions/internal/stripe"
)

// TestStreamingMatchesEager is the regenerability bridge: every user an
// eager BuildCity materializes is byte-for-byte the user the streaming
// OpenCity derives on demand. With this pinned, every calibration test
// that runs over BuildCity (1/9/90 split, persona ranges, opinion
// distributions) covers the streaming path too.
func TestStreamingMatchesEager(t *testing.T) {
	cfg := CityConfig{Seed: 7, NumUsers: 500, SpanMeters: 12000}
	eager := BuildCity(cfg)
	stream := OpenCity(cfg)
	if stream.Users != nil {
		t.Fatal("OpenCity materialized users")
	}
	if stream.NumUsers() != 500 || eager.NumUsers() != 500 {
		t.Fatalf("NumUsers = %d / %d", stream.NumUsers(), eager.NumUsers())
	}
	for i := 0; i < 500; i++ {
		a, b := eager.Users[i], stream.UserAt(i)
		if *a != *b {
			t.Fatalf("user %d differs between eager and streaming: %+v vs %+v", i, a, b)
		}
	}
	// The entity catalogs are identical too.
	if len(eager.Entities) != len(stream.Entities) {
		t.Fatalf("entity counts differ: %d vs %d", len(eager.Entities), len(stream.Entities))
	}
	for i := range eager.Entities {
		if *eager.Entities[i] != *stream.Entities[i] {
			t.Fatalf("entity %d differs", i)
		}
	}
}

// TestUserAtOrderIndependent pins the O(1) regeneration contract: the
// derived user is the same whether generated alone, after any other
// users, or in any shard order.
func TestUserAtOrderIndependent(t *testing.T) {
	cfg := CityConfig{Seed: 3, NumUsers: 1000}
	a := OpenCity(cfg)
	b := OpenCity(cfg)

	// a derives forward, b derives backward with interleaved extras.
	for i := 0; i < 100; i++ {
		j := 99 - i
		_ = b.UserAt((i * 37) % 1000) // unrelated derivations in between
		ua, ub := a.UserAt(j), b.UserAt(j)
		if *ua != *ub {
			t.Fatalf("user %d depends on derivation order", j)
		}
	}
	// Repeated derivation of the same index is stable.
	if *a.UserAt(42) != *a.UserAt(42) {
		t.Fatal("UserAt not stable")
	}
}

func TestUserIndexRoundTrip(t *testing.T) {
	c := OpenCity(CityConfig{Seed: 1, NumUsers: 200000})
	for _, i := range []int{0, 1, 99, 99999, 100000, 199999} {
		u := c.UserAt(i)
		got, ok := c.UserIndex(u.ID)
		if !ok || got != i {
			t.Fatalf("UserIndex(%s) = %d, %v; want %d", u.ID, got, ok, i)
		}
		if c.UserByID(u.ID) == nil || c.UserByID(u.ID).ID != u.ID {
			t.Fatalf("UserByID(%s) failed on streaming city", u.ID)
		}
	}
	for _, bad := range []UserID{"", "u", "x00001", "u1", "u-1", "u999999", "u0001x"} {
		if _, ok := c.UserIndex(bad); ok {
			t.Fatalf("UserIndex accepted %q", bad)
		}
		if c.UserByID(bad) != nil {
			t.Fatalf("UserByID invented user for %q", bad)
		}
	}
	if c.UserAt(-1) != nil || c.UserAt(200000) != nil {
		t.Fatal("UserAt out of range returned a user")
	}
}

// TestStreamingParticipationSplit is the paper-calibration guard on the
// streaming path: the 1/9/90 rule must hold over users that are derived
// and dropped one at a time, never materialized as a population.
func TestStreamingParticipationSplit(t *testing.T) {
	c := OpenCity(CityConfig{Seed: 1, NumUsers: 5000})
	counts := map[ParticipationClass]int{}
	seen := 0
	c.EachUser(func(i int, u *User) bool {
		counts[u.Class]++
		seen++
		// Persona calibration holds user by user too.
		p := u.Persona
		if p.EatOutPerWeek < 0.2 || p.DentalPerYear < 0.3 || p.HomeServicePerYear < 0.1 {
			t.Fatalf("streamed persona rates out of range: %+v", p)
		}
		if p.Sociability < 0 || p.Sociability > 0.9 || p.Explorer < 0.02 || p.Explorer > 0.95 {
			t.Fatalf("streamed persona probs out of range: %+v", p)
		}
		return true
	})
	if seen != 5000 {
		t.Fatalf("EachUser visited %d of 5000", seen)
	}
	frac := func(cl ParticipationClass) float64 { return float64(counts[cl]) / 5000 }
	if f := frac(HeavyContributor); f < 0.004 || f > 0.02 {
		t.Errorf("heavy fraction = %v, want ~0.01", f)
	}
	if f := frac(OccasionalContributor); f < 0.06 || f > 0.13 {
		t.Errorf("occasional fraction = %v, want ~0.09", f)
	}
	if f := frac(Lurker); f < 0.85 || f > 0.94 {
		t.Errorf("lurker fraction = %v, want ~0.90", f)
	}
}

func TestCircleBlocksPartitionAndAreSymmetric(t *testing.T) {
	c := OpenCity(CityConfig{Seed: 2, NumUsers: 10}) // tail block of 2
	seenPartner := make(map[int]map[int]bool)
	for i := 0; i < 10; i++ {
		seenPartner[i] = make(map[int]bool)
		for _, j := range c.Circle(i) {
			if j == i {
				t.Fatalf("user %d in own circle", i)
			}
			seenPartner[i][j] = true
		}
	}
	for i := 0; i < 10; i++ {
		for j := range seenPartner[i] {
			if !seenPartner[j][i] {
				t.Fatalf("circle not symmetric: %d has %d but not vice versa", i, j)
			}
		}
	}
	// Tail block: users 8 and 9 pair with each other only.
	if len(c.Circle(8)) != 1 || c.Circle(8)[0] != 9 {
		t.Fatalf("tail circle wrong: %v", c.Circle(8))
	}
}

// TestShardAlignment pins the worldgen↔cluster contract: sharding users
// and entities by stripe.IndexN over N partitions assigns each to
// exactly one shard, and the assignment is the same one cluster.Ring
// routes by.
func TestShardAlignment(t *testing.T) {
	c := OpenCity(CityConfig{Seed: 5, NumUsers: 1000})
	const shards = 3
	userShard := make(map[int]int)
	c.EachUser(func(i int, u *User) bool {
		userShard[i] = stripe.IndexN(string(u.ID), shards)
		return true
	})
	counts := make([]int, shards)
	for _, p := range userShard {
		counts[p]++
	}
	for p, n := range counts {
		if n < 200 || n > 470 {
			t.Fatalf("shard %d has %d of 1000 users — badly skewed: %v", p, n, counts)
		}
	}
	for _, e := range c.Entities {
		p := stripe.IndexN(e.Key(), shards)
		if p < 0 || p >= shards {
			t.Fatalf("entity %s mapped to shard %d", e.Key(), p)
		}
	}
}
