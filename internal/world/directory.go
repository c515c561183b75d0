package world

import (
	"fmt"
	"math"

	"opinions/internal/geo"
	"opinions/internal/stats"
)

// ZipCode is one of the measurement locations: the paper queries the
// most populous zip code in each of the 50 US states.
type ZipCode struct {
	Code   string
	State  string
	Center geo.Point
}

// Zips synthesizes n measurement zip codes laid out on a coast-to-coast
// grid. The paper uses n = 50 (one per state).
func Zips(n int) []ZipCode {
	out := make([]ZipCode, n)
	// Spread the zips over the continental US bounding box so
	// inter-zip distances are realistic (entities from different zips
	// never collide in spatial queries).
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		row := i / cols
		col := i % cols
		lat := 30.0 + 15.0*float64(row)/float64(cols)
		lon := -120.0 + 45.0*float64(col)/float64(cols)
		out[i] = ZipCode{
			Code:   fmt.Sprintf("%05d", 10000+i*137),
			State:  fmt.Sprintf("S%02d", i+1),
			Center: geo.Point{Lat: lat, Lon: lon},
		}
	}
	return out
}

// Directory is the synthetic five-service universe used by the crawl
// experiments (§2: Table 1, Figure 1a–c).
type Directory struct {
	Zips     []ZipCode
	Profiles map[ServiceKind]ServiceProfile

	// ByQuery maps service → zip code → category → entities matching
	// that query, mirroring how the paper's crawler saw the data.
	ByQuery map[ServiceKind]map[string]map[string][]*Entity

	// Entities lists every entity per service.
	Entities map[ServiceKind][]*Entity
}

// DirectoryConfig controls the scale of the generated directory.
type DirectoryConfig struct {
	Seed int64
	// NumZips is the number of measurement locations (paper: 50).
	NumZips int
	// Scale multiplies per-query entity counts; 1.0 reproduces the
	// paper's totals (~25k entities per review service), smaller values
	// make tests fast while preserving all distributional shapes.
	Scale float64
	// InteractionEntities is the number of Play apps and of YouTube
	// videos sampled for Figure 1(c) (paper: 1000 each).
	InteractionEntities int
}

// DefaultDirectoryConfig reproduces the paper's measurement scale.
func DefaultDirectoryConfig() DirectoryConfig {
	return DirectoryConfig{Seed: 1, NumZips: 50, Scale: 1.0, InteractionEntities: 1000}
}

// TestDirectoryConfig is a ~25x smaller universe for unit tests.
func TestDirectoryConfig() DirectoryConfig {
	return DirectoryConfig{Seed: 1, NumZips: 10, Scale: 0.5, InteractionEntities: 200}
}

// BuildDirectory generates the five-service universe.
func BuildDirectory(cfg DirectoryConfig) *Directory {
	if cfg.NumZips <= 0 {
		cfg.NumZips = 50
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.InteractionEntities <= 0 {
		cfg.InteractionEntities = 1000
	}
	d := &Directory{
		Zips:     Zips(cfg.NumZips),
		Profiles: Profiles(),
		ByQuery:  make(map[ServiceKind]map[string]map[string][]*Entity),
		Entities: make(map[ServiceKind][]*Entity),
	}
	root := stats.NewRNG(cfg.Seed)

	for _, kind := range ReviewServices {
		p := d.Profiles[kind]
		rng := root.Split("dir/" + string(kind))
		d.ByQuery[kind] = make(map[string]map[string][]*Entity)
		serial := 0
		for _, z := range d.Zips {
			d.ByQuery[kind][z.Code] = make(map[string][]*Entity)
			for _, cat := range p.Categories {
				n := int(math.Round(rng.LogNormal(math.Log(p.QueryMedian), p.QuerySigma) * cfg.Scale))
				if n < 1 {
					n = 1
				}
				ents := make([]*Entity, 0, n)
				for i := 0; i < n; i++ {
					serial++
					reviews := int(math.Round(rng.LogNormal(math.Log(p.ReviewMedian), p.ReviewSigma)))
					if reviews < 1 {
						reviews = 1
					}
					e := &Entity{
						ID:          EntityID(fmt.Sprintf("%s-%s-%s-%d", kind, z.Code, cat, i)),
						Service:     kind,
						Category:    cat,
						Zip:         z.Code,
						Name:        entityName(kind, cat, serial),
						Loc:         jitter(rng, z.Center, 4000),
						Phone:       fmt.Sprintf("+1%03d555%04d", 200+len(d.Entities[kind])%700, serial%10000),
						Quality:     clamp(rng.Normal(3.5, 0.8), 0.5, 5),
						PriceLevel:  1 + rng.Intn(4),
						ReviewCount: reviews,
					}
					ents = append(ents, e)
					d.Entities[kind] = append(d.Entities[kind], e)
				}
				d.ByQuery[kind][z.Code][cat] = ents
			}
		}
	}

	for _, kind := range InteractionServices {
		p := d.Profiles[kind]
		rng := root.Split("dir/" + string(kind))
		for i := 0; i < cfg.InteractionEntities; i++ {
			inter := int64(math.Round(rng.LogNormal(math.Log(p.InteractionMedian), p.InteractionSigma)))
			if inter < 1 {
				inter = 1
			}
			rate := p.FeedbackRateLo + rng.Float64()*(p.FeedbackRateHi-p.FeedbackRateLo)
			fb := int64(math.Round(float64(inter) * rate))
			if fb < 1 {
				fb = 1
			}
			e := &Entity{
				ID:           EntityID(fmt.Sprintf("%s-%d", kind, i)),
				Service:      kind,
				Category:     p.Categories[0],
				Name:         entityName(kind, p.Categories[0], i),
				Quality:      clamp(rng.Normal(3.5, 0.8), 0.5, 5),
				Interactions: inter,
				Feedback:     fb,
				ReviewCount:  int(fb),
			}
			d.Entities[kind] = append(d.Entities[kind], e)
		}
	}
	return d
}

// QueryCount returns the number of (zip, category) queries issued against
// service kind, i.e. len(zips) × len(categories).
func (d *Directory) QueryCount(kind ServiceKind) int {
	p, ok := d.Profiles[kind]
	if !ok {
		return 0
	}
	return len(d.Zips) * len(p.Categories)
}

// Lookup returns the entities matching one (zip, category) query in a
// stable order, or nil if the query matches nothing.
func (d *Directory) Lookup(kind ServiceKind, zip, category string) []*Entity {
	byZip, ok := d.ByQuery[kind]
	if !ok {
		return nil
	}
	byCat, ok := byZip[zip]
	if !ok {
		return nil
	}
	return byCat[category]
}

// Find returns the entity with the given service and id, or nil.
func (d *Directory) Find(kind ServiceKind, id EntityID) *Entity {
	for _, e := range d.Entities[kind] {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// ReviewCounts returns every review count for a service as float64s, the
// raw material of Figure 1(a).
func (d *Directory) ReviewCounts(kind ServiceKind) []float64 {
	ents := d.Entities[kind]
	out := make([]float64, len(ents))
	for i, e := range ents {
		out[i] = float64(e.ReviewCount)
	}
	return out
}

func jitter(rng *stats.RNG, center geo.Point, radius float64) geo.Point {
	return geo.Offset(center, rng.Normal(0, radius/2), rng.Normal(0, radius/2))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
