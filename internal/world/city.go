package world

import (
	"fmt"
	"math"
	"strconv"

	"opinions/internal/geo"
	"opinions/internal/stats"
)

// PhysicalCategories are the entity categories that exist in the
// behavioural city. Restaurants dominate activity volume; dentists and
// home-service providers are the rare, high-stakes categories the paper
// repeatedly uses as examples ("the dentists and plumbers she would
// recommend can be inferred from her phone call history").
var PhysicalCategories = []string{
	"restaurant", "cafe", "dentist", "plumber", "electrician", "hairdresser", "gym",
}

// CityConfig controls generation of the behavioural city.
type CityConfig struct {
	Seed     int64
	NumUsers int
	// EntitiesPerCategory sets how many entities of each category exist;
	// when nil, DefaultEntityCounts is used.
	EntitiesPerCategory map[string]int
	// SpanMeters is the side of the square city (default 16 km).
	SpanMeters float64
}

// DefaultEntityCounts is a small city with realistic category ratios.
func DefaultEntityCounts() map[string]int {
	return map[string]int{
		"restaurant":  120,
		"cafe":        40,
		"dentist":     25,
		"plumber":     18,
		"electrician": 15,
		"hairdresser": 30,
		"gym":         12,
	}
}

// City is the behavioural universe: physical entities with locations and
// phone numbers, and a user population with homes, workplaces and
// personas.
//
// The entity catalog is always materialized — it is small (hundreds of
// entries) and shared by every consumer. The user population has two
// representations:
//
//   - Eager (BuildCity): Users holds every *User; UserAt indexes the
//     slice. This is what the calibration experiments and the existing
//     callers use.
//   - Streaming (OpenCity): Users stays nil and UserAt derives the
//     requested user on demand from a per-user seed,
//     DeriveSeed(worldSeed, "user", i). Any single user of a
//     million-user city is regenerable in O(1) memory, identical no
//     matter which process, shard, or cohort asks.
type City struct {
	Center   geo.Point
	Span     float64
	Users    []*User // nil when the city was opened streaming
	Entities []*Entity

	// Spatial is an index over entity locations for proximity queries.
	Spatial *geo.Index
	// PhoneBook resolves a phone number to the entity that owns it.
	PhoneBook map[string]*Entity

	byKey      map[string]*Entity
	byCategory map[string][]*Entity
	usersByID  map[UserID]*User

	seed     int64
	numUsers int
}

// circleSize is the social block width: users are partitioned into
// consecutive-index blocks of this size, and a user's friend circle is
// the other members of their block (up to circleSize-1 friends). Blocks
// are seed-stable and disjoint, so group events derived inside one block
// never need information about any user outside it — the property that
// lets a cohort simulate K users without touching the other N-K.
const circleSize = 4

// BuildCity generates a deterministic city from cfg with every user
// materialized. It is a thin eager wrapper over the streaming core: the
// users it returns are exactly the users OpenCity(cfg).UserAt(i) would
// derive on demand.
func BuildCity(cfg CityConfig) *City {
	c := OpenCity(cfg)
	c.Users = make([]*User, c.numUsers)
	c.usersByID = make(map[UserID]*User, c.numUsers)
	for i := 0; i < c.numUsers; i++ {
		u := c.deriveUser(i)
		c.Users[i] = u
		c.usersByID[u.ID] = u
	}
	return c
}

// OpenCity builds the entity catalog of a deterministic city without
// materializing any users. UserAt derives users on demand; a
// million-user city opens in the memory of its few hundred entities.
func OpenCity(cfg CityConfig) *City {
	if cfg.NumUsers <= 0 {
		cfg.NumUsers = 400
	}
	if cfg.SpanMeters <= 0 {
		cfg.SpanMeters = 16000
	}
	counts := cfg.EntitiesPerCategory
	if counts == nil {
		counts = DefaultEntityCounts()
	}
	c := &City{
		Center:     geo.Point{Lat: 42.28, Lon: -83.74},
		Span:       cfg.SpanMeters,
		Spatial:    geo.NewIndex(500),
		PhoneBook:  make(map[string]*Entity),
		byKey:      make(map[string]*Entity),
		byCategory: make(map[string][]*Entity),
		seed:       cfg.Seed,
		numUsers:   cfg.NumUsers,
	}
	root := stats.NewRNG(cfg.Seed)

	erng := root.Split("city/entities")
	serial := 0
	for _, cat := range PhysicalCategories {
		n := counts[cat]
		for i := 0; i < n; i++ {
			serial++
			loc := c.randomPoint(erng)
			e := &Entity{
				ID:         EntityID(fmt.Sprintf("city-%s-%03d", cat, i)),
				Service:    Yelp, // the behavioural city is served by one RSP
				Category:   cat,
				Zip:        "48104",
				Name:       entityName("city", cat, serial),
				Loc:        loc,
				Phone:      fmt.Sprintf("+1734555%04d", serial),
				Quality:    clamp(erng.Normal(3.4, 0.9), 0.5, 5),
				PriceLevel: 1 + erng.Intn(4),
			}
			c.Entities = append(c.Entities, e)
			c.Spatial.Insert(e.Key(), e.Loc)
			c.PhoneBook[e.Phone] = e
			c.byKey[e.Key()] = e
			c.byCategory[cat] = append(c.byCategory[cat], e)
		}
	}
	return c
}

// Seed returns the world seed the city was generated from.
func (c *City) Seed() int64 { return c.seed }

// NumUsers returns the configured population size.
func (c *City) NumUsers() int { return c.numUsers }

// UserIDOf formats the canonical id of user index i.
func UserIDOf(i int) UserID { return UserID(fmt.Sprintf("u%05d", i)) }

// UserIndex parses a canonical user id back to its index. It reports
// false for ids that are not the canonical form of an index within the
// city's population.
func (c *City) UserIndex(id UserID) (int, bool) {
	s := string(id)
	if len(s) < 2 || s[0] != 'u' {
		return 0, false
	}
	i, err := strconv.Atoi(s[1:])
	if err != nil || i < 0 || i >= c.numUsers || UserIDOf(i) != id {
		return 0, false
	}
	return i, true
}

// UserAt returns user index i, derived on demand in a streaming city or
// indexed from the materialized slice in an eager one. The two paths
// produce identical users. Returns nil when i is out of range.
func (c *City) UserAt(i int) *User {
	if i < 0 || i >= c.numUsers {
		return nil
	}
	if c.Users != nil {
		return c.Users[i]
	}
	return c.deriveUser(i)
}

// EachUser streams users in index order through f until f returns false.
// In a streaming city each user is derived, visited, and dropped — the
// whole population is never resident at once.
func (c *City) EachUser(f func(i int, u *User) bool) {
	for i := 0; i < c.numUsers; i++ {
		if !f(i, c.UserAt(i)) {
			return
		}
	}
}

// Circle returns the friend-circle indexes of user i: the other members
// of i's social block. The blocks partition the population, so circles
// are symmetric (j in Circle(i) iff i in Circle(j)) and derivable from
// the index alone.
func (c *City) Circle(i int) []int {
	start, end := c.circleBlock(i)
	out := make([]int, 0, end-start-1)
	for j := start; j < end; j++ {
		if j != i {
			out = append(out, j)
		}
	}
	return out
}

// circleBlock returns the half-open index range of i's social block.
func (c *City) circleBlock(i int) (start, end int) {
	return CircleBlock(i, c.numUsers)
}

// CircleBlock returns the half-open index range of user i's social
// block in a population of n: the seed-stable pairing the trace
// simulator derives group events from.
func CircleBlock(i, n int) (start, end int) {
	start = (i / circleSize) * circleSize
	end = start + circleSize
	if end > n {
		end = n
	}
	return start, end
}

// deriveUser generates user i from its per-user seed. This is the
// regenerability contract: the stream depends only on (worldSeed, i) and
// the city geometry, never on which users were generated before.
func (c *City) deriveUser(i int) *User {
	rng := stats.Derive(c.seed, "city/user", strconv.Itoa(i))
	u := &User{
		ID:        UserIDOf(i),
		Home:      c.randomPoint(rng),
		Work:      c.randomPoint(rng),
		tasteSeed: uint64(rng.Int63()),
	}
	// 1/9/90 participation split [11].
	switch r := rng.Float64(); {
	case r < 0.01:
		u.Class = HeavyContributor
	case r < 0.10:
		u.Class = OccasionalContributor
	default:
		u.Class = Lurker
	}
	u.Persona = Persona{
		EatOutPerWeek:      math.Max(0.2, rng.Normal(2.5, 1.2)),
		DentalPerYear:      math.Max(0.3, rng.Normal(2.0, 0.8)),
		HomeServicePerYear: math.Max(0.1, rng.Normal(1.5, 1.0)),
		Sociability:        clamp(rng.Normal(0.35, 0.2), 0, 0.9),
		Explorer:           clamp(rng.Normal(0.3, 0.2), 0.02, 0.95),
		Pickiness:          clamp(rng.Normal(0.5, 0.25), 0, 1),
	}
	return u
}

func (c *City) randomPoint(rng *stats.RNG) geo.Point {
	half := c.Span / 2
	return geo.Offset(c.Center,
		(rng.Float64()*2-1)*half,
		(rng.Float64()*2-1)*half)
}

// EntityByKey returns the entity with the given "service/id" key, or nil.
func (c *City) EntityByKey(key string) *Entity { return c.byKey[key] }

// EntitiesByCategory returns all entities in a category (shared slice; do
// not mutate).
func (c *City) EntitiesByCategory(cat string) []*Entity { return c.byCategory[cat] }

// UserByID returns the user with the given id, or nil. Eager cities
// answer from the materialized index; streaming cities parse the
// canonical id and derive the user on demand.
func (c *City) UserByID(id UserID) *User {
	if c.usersByID != nil {
		return c.usersByID[id]
	}
	i, ok := c.UserIndex(id)
	if !ok {
		return nil
	}
	return c.UserAt(i)
}

// Choose picks the entity of the given category a user would select when
// starting from `from`, combining quality preference and distance as
// §4.1 assumes real users do. With probability u.Explorer the user
// samples among the top options (softmax-ish), otherwise takes the
// argmax. Returns nil if the category is empty.
func (c *City) Choose(rng *stats.RNG, u *User, category string, from geo.Point) *Entity {
	cands := c.byCategory[category]
	if len(cands) == 0 {
		return nil
	}
	type scored struct {
		e *Entity
		u float64
	}
	best := make([]scored, 0, len(cands))
	for _, e := range cands {
		best = append(best, scored{e, u.utility(e, geo.Distance(from, e.Loc))})
	}
	// Partial selection sort for top-5 keeps this O(5n).
	k := 5
	if k > len(best) {
		k = len(best)
	}
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(best); j++ {
			if best[j].u > best[maxJ].u {
				maxJ = j
			}
		}
		best[i], best[maxJ] = best[maxJ], best[i]
	}
	if rng.Bool(u.Explorer) {
		// Exploration: weighted pick among the top k.
		w := make([]float64, k)
		for i := 0; i < k; i++ {
			w[i] = math.Exp(best[i].u - best[0].u)
		}
		return best[rng.Pick(w)].e
	}
	return best[0].e
}

// SimilarNearby counts entities similar to e (same category, comparable
// price) within radius meters — the §4.1 choice-set size feature.
func (c *City) SimilarNearby(e *Entity, radius float64) int {
	n := 0
	for _, nb := range c.Spatial.Within(e.Loc, radius) {
		other := c.byKey[nb.ID]
		if other == nil || other.Key() == e.Key() {
			continue
		}
		if e.SimilarTo(other) {
			n++
		}
	}
	return n
}
