package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"opinions/internal/fraud"
	"opinions/internal/inference"
	"opinions/internal/interaction"
	"opinions/internal/reviews"
	"opinions/internal/stats"
	"opinions/internal/store"
	"opinions/internal/world"
)

// World is the catalog every rspd child builds from the same flags,
// plus the popularity ranking the generators draw entities from. The
// ranking belongs to the world seed, not the workload seed: which
// entities are hot is a property of the city, so two workload seeds
// differ in their draws but not in where the hot spots are.
type World struct {
	Catalog []*world.Entity
	Keys    []string                 // catalog order
	ByKey   map[string]*world.Entity // for expected review counts
	Ranked  []string                 // popularity rank → entity key
	Queries []SearchQuery            // every (service, zip, category) with at least one entity
	Kinds   []string                 // service kinds, for directory filters
	Cats    []string                 // categories, for training pairs
}

// SearchQuery is one (service, zip, category) search.
type SearchQuery struct {
	Service, Zip, Category string
}

// BuildWorld mirrors cmd/rspd's -world directory catalog construction.
func BuildWorld(p Params) *World {
	dir := world.BuildDirectory(world.DirectoryConfig{Seed: p.WorldSeed, NumZips: 50, Scale: p.WorldScale, InteractionEntities: 1000})
	w := &World{ByKey: make(map[string]*world.Entity)}
	for _, kind := range world.ReviewServices {
		w.Catalog = append(w.Catalog, dir.Entities[kind]...)
	}
	for _, kind := range world.InteractionServices {
		w.Catalog = append(w.Catalog, dir.Entities[kind]...)
	}
	seenQ := make(map[SearchQuery]bool)
	seenKind := make(map[string]bool)
	seenCat := make(map[string]bool)
	for _, e := range w.Catalog {
		w.Keys = append(w.Keys, e.Key())
		w.ByKey[e.Key()] = e
		q := SearchQuery{string(e.Service), e.Zip, e.Category}
		if !seenQ[q] {
			seenQ[q] = true
			w.Queries = append(w.Queries, q)
		}
		if !seenKind[q.Service] {
			seenKind[q.Service] = true
			w.Kinds = append(w.Kinds, q.Service)
		}
		if !seenCat[e.Category] {
			seenCat[e.Category] = true
			w.Cats = append(w.Cats, e.Category)
		}
	}
	w.Ranked = append([]string(nil), w.Keys...)
	rng := rand.New(rand.NewSource(stats.DeriveSeed(p.WorldSeed, "bench", "popularity")))
	rng.Shuffle(len(w.Ranked), func(i, j int) { w.Ranked[i], w.Ranked[j] = w.Ranked[j], w.Ranked[i] })
	return w
}

// picker draws entity keys by Zipf popularity.
type picker struct {
	zipf   *rand.Zipf
	ranked []string
}

func newPicker(rng *rand.Rand, w *World, s float64) *picker {
	return &picker{zipf: rand.NewZipf(rng, s, 1, uint64(len(w.Ranked)-1)), ranked: w.Ranked}
}

func (p *picker) key() string { return p.ranked[p.zipf.Uint64()] }

// preloadEpoch anchors every generated timestamp, so the preload is a
// pure function of its seed and never of the wall clock.
var preloadEpoch = time.Date(2016, 11, 9, 9, 0, 0, 0, time.UTC)

// Preload is the generated durable state: the records folded into the
// snapshot, the tail left in the WAL, and the per-entity counts the
// output checks compare served bodies against.
type Preload struct {
	Bulk []*store.Record // committed, then compacted into the snapshot (ends with the retrain)
	Tail []*store.Record // committed after the compaction
	Want Counts
}

// Counts is the state the server must report: totals for /api/stats and
// per-entity counts for /api/entity.
type Counts struct {
	Histories, Records, Ratings, Reviews, TrainPairs int
	Entity                                           map[string]*EntityCounts
}

// EntityCounts is one entity's share of Counts.
type EntityCounts struct {
	Histories, Records, Ratings, Reviews int
	Visits                               int // records of visit kind: what raw_interactions counts
}

func (c *Counts) entity(key string) *EntityCounts {
	ec := c.Entity[key]
	if ec == nil {
		ec = &EntityCounts{}
		c.Entity[key] = ec
	}
	return ec
}

// add folds one record into the counts. newHistory says whether the
// record opens an anonymous history rather than extending one.
func (c *Counts) add(rec *store.Record, newHistory bool) {
	switch rec.Kind {
	case store.KindUpload:
		ec := c.entity(rec.Entity)
		if rec.Visit != nil {
			c.Records++
			ec.Records++
			if rec.Visit.Kind == interaction.VisitKind {
				ec.Visits++
			}
			if newHistory {
				c.Histories++
				ec.Histories++
			}
		}
		if rec.Rating != nil {
			c.Ratings++
			ec.Ratings++
		}
	case store.KindReview:
		c.Reviews++
		c.entity(rec.Review.Entity).Reviews++
	case store.KindTrainPair:
		c.TrainPairs++
	}
}

// merge adds another set of counts.
func (c *Counts) merge(o *Counts) {
	c.Histories += o.Histories
	c.Records += o.Records
	c.Ratings += o.Ratings
	c.Reviews += o.Reviews
	c.TrainPairs += o.TrainPairs
	for k, v := range o.Entity {
		ec := c.entity(k)
		ec.Histories += v.Histories
		ec.Records += v.Records
		ec.Ratings += v.Ratings
		ec.Reviews += v.Reviews
		ec.Visits += v.Visits
	}
}

// clone copies the counts so a run can add its acknowledged writes.
func (c *Counts) clone() Counts {
	out := *c
	out.Entity = make(map[string]*EntityCounts, len(c.Entity))
	for k, v := range c.Entity {
		cp := *v
		out.Entity[k] = &cp
	}
	return out
}

var reviewPhrases = []string{
	"Quick, friendly and fairly priced.",
	"Had to wait longer than promised, but the work was solid.",
	"Would not go back; the place was understaffed.",
	"Exactly what the listing said. No surprises.",
	"Best in the neighbourhood by some distance.",
}

func halfStars(rng *rand.Rand) float64 { return float64(rng.Intn(11)) / 2 }

// honestVisit draws one visit by a real patron: under an hour and a
// half, a few kilometres travelled.
func honestVisit(rng *rand.Rand, entity string, start time.Time) interaction.Record {
	return interaction.Record{
		Entity:       entity,
		Kind:         interaction.VisitKind,
		Start:        start,
		Duration:     time.Duration(20+rng.Intn(70)) * time.Minute,
		DistanceFrom: 200 + 6000*rng.Float64(),
	}
}

// honestVisits draws a patron's history: 1 to 5 visits (3 on average),
// days to weeks apart.
func honestVisits(rng *rand.Rand, entity string) []interaction.Record {
	recs := make([]interaction.Record, 1+rng.Intn(5))
	start := preloadEpoch.Add(-time.Duration(rng.Intn(300*24)) * time.Hour)
	for i := range recs {
		recs[i] = honestVisit(rng, entity, start)
		start = start.Add(time.Duration(24+rng.Intn(30*24)) * time.Hour)
	}
	return recs
}

func anonID(rng *rand.Rand) string { return fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()) }

// GeneratePreload draws the preload from the workload seed.
func GeneratePreload(p Params, w *World, seed int64) *Preload {
	rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, "bench", "preload")))
	pick := newPicker(rng, w, p.ZipfS)
	attackRNG := stats.Derive(seed, "bench", "preload", "attacks")
	attacks := fraud.AllAttacks()
	pl := &Preload{Want: Counts{Entity: make(map[string]*EntityCounts)}}

	history := func(attack bool) []*store.Record {
		entity, id := pick.key(), anonID(rng)
		var visits []interaction.Record
		if attack {
			visits = attacks[rng.Intn(len(attacks))].Generate(attackRNG, entity, preloadEpoch.Add(-time.Duration(rng.Intn(90*24))*time.Hour))
		} else {
			visits = honestVisits(rng, entity)
		}
		out := make([]*store.Record, len(visits))
		for i := range visits {
			out[i] = &store.Record{Kind: store.KindUpload, AnonID: id, Entity: entity, Visit: &visits[i]}
		}
		// The device uploads its inferred rating with the latest record.
		rating := halfStars(rng)
		out[len(out)-1].Rating = &rating
		return out
	}
	review := func(i int) *store.Record {
		return &store.Record{Kind: store.KindReview, Review: &reviews.Review{
			Entity: pick.key(),
			Author: fmt.Sprintf("reader-%05d", rng.Intn(20000)),
			Rating: halfStars(rng),
			Text:   reviewPhrases[rng.Intn(len(reviewPhrases))],
			Time:   preloadEpoch.Add(time.Duration(i) * time.Second),
		}}
	}
	commit := func(dst *[]*store.Record, recs ...*store.Record) {
		for i, rec := range recs {
			pl.Want.add(rec, i == 0)
			*dst = append(*dst, rec)
		}
	}

	nAttack := int(math.Round(float64(p.Histories) * p.AttackShare))
	for i := 0; i < p.Histories; i++ {
		commit(&pl.Bulk, history(i < nAttack)...)
	}
	for i := 0; i < p.Reviews; i++ {
		commit(&pl.Bulk, review(i))
	}
	for i := 0; i < p.TrainPairs; i++ {
		features := make([]float64, inference.NumFeatures)
		for j := range features {
			features[j] = rng.Float64()
		}
		commit(&pl.Bulk, &store.Record{Kind: store.KindTrainPair, Features: features,
			TrainRating: halfStars(rng), Category: w.Cats[rng.Intn(len(w.Cats))]})
	}
	pl.Bulk = append(pl.Bulk, &store.Record{Kind: store.KindRetrain})

	for len(pl.Tail) < p.TailRecords {
		if rng.Intn(4) == 0 {
			commit(&pl.Tail, review(p.Reviews+len(pl.Tail)))
			continue
		}
		recs := history(false)
		for i, rec := range recs {
			rec.Key = fmt.Sprintf("preload-%s-%d", rec.AnonID, i)
		}
		commit(&pl.Tail, recs...)
	}
	return pl
}

// Digest hashes the generated records: equal digests mean equal inputs
// to the store.
func (pl *Preload) Digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, recs := range [][]*store.Record{pl.Bulk, pl.Tail} {
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				panic(err) // records hold only plain data
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// OpKind names what one scheduled operation does.
type OpKind string

// The operations a workload is mixed from.
const (
	OpEntity     OpKind = "entity"
	OpSearch     OpKind = "search"
	OpReviews    OpKind = "reviews"
	OpDirectory  OpKind = "directory"
	OpContribute OpKind = "contribute"  // blind → token → unblind → upload
	OpReviewPost OpKind = "review_post" // POST /api/reviews
	OpRedeliver  OpKind = "redeliver"   // re-POST an already-acked upload key
	OpSweep      OpKind = "sweep"       // operator: POST /api/fraud/sweep
	OpRetrain    OpKind = "retrain"     // operator: POST /api/model/retrain
)

func (k OpKind) isRead() bool {
	return k == OpEntity || k == OpSearch || k == OpReviews || k == OpDirectory
}

func (k OpKind) isOperator() bool { return k == OpSweep || k == OpRetrain }

// Op is one generated request (a contribution is one op of two round
// trips). Fields a kind does not use stay zero.
type Op struct {
	Kind   OpKind        `json:"kind"`
	At     time.Duration `json:"at,omitempty"` // open loop: intended send time from the window start
	Entity string        `json:"entity,omitempty"`
	Query  *SearchQuery  `json:"query,omitempty"`
	Offset int           `json:"offset,omitempty"`

	// Contributions and review posts.
	Device string              `json:"device,omitempty"`
	AnonID string              `json:"anon_id,omitempty"`
	Key    string              `json:"key,omitempty"`
	Visit  *interaction.Record `json:"visit,omitempty"`
	Rating float64             `json:"rating,omitempty"`
	Serial []byte              `json:"serial,omitempty"` // token serial; the blinding factor is the client's own randomness
	Author string              `json:"author,omitempty"`
	Text   string              `json:"text,omitempty"`
	Attack bool                `json:"attack,omitempty"`
}

// uri is a read op's request target; limit bounds a search page.
func (op *Op) uri(limit int) string {
	switch op.Kind {
	case OpEntity:
		return "/api/entity?key=" + url.QueryEscape(op.Entity)
	case OpSearch:
		q := op.Query
		return "/api/search?service=" + url.QueryEscape(q.Service) + "&zip=" + url.QueryEscape(q.Zip) +
			"&category=" + url.QueryEscape(q.Category) + "&limit=" + strconv.Itoa(limit)
	case OpReviews:
		return "/api/reviews?entity=" + url.QueryEscape(op.Entity) + "&offset=" + strconv.Itoa(op.Offset) + "&limit=20"
	case OpDirectory:
		if op.Entity != "" { // service filter
			return "/api/directory?service=" + url.QueryEscape(op.Entity)
		}
		return "/api/directory"
	}
	panic("bench: no URI for op kind " + string(op.Kind))
}

// Workload names.
const (
	Browse     = "browse"
	Contribute = "contribute"
	Maintain   = "maintain"
	Ring3      = "ring3"
)

// Workloads lists the four workloads in reporting order.
var Workloads = []string{Browse, Contribute, Maintain, Ring3}

// mix is a workload's op shares in percent.
type mix struct {
	read, contribute, reviewPost, redeliver int
	attackEvery                             int // every n-th contribution is attack-shaped; 0 = none
}

var mixes = map[string]mix{
	Browse:     {read: 100},
	Contribute: {contribute: 85, reviewPost: 10, redeliver: 5},
	Maintain:   {read: 80, contribute: 20, attackEvery: 10},
	Ring3:      {read: 70, contribute: 30},
}

// Stream generates one client's endless, deterministic op sequence.
type Stream struct {
	mix      mix
	rng      *rand.Rand
	pick     *picker
	w        *World
	tag      string // unique per (seed, client): prefixes devices, anon ids and keys
	n        int
	contribs int
	attacker []attackerState
}

// attackerState is one fake patron hammering one entity with
// back-to-back calls under a single anonymous id, the call-spam shape
// of §4.3, so the sweep has something to find.
type attackerState struct {
	anonID, entity string
	next           time.Time
}

// NewStream returns client c's stream for a workload and seed.
func NewStream(workload string, p Params, w *World, seed int64, client int) *Stream {
	rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, "bench", "ops", workload, fmt.Sprint(client))))
	s := &Stream{
		mix: mixes[workload], rng: rng, w: w,
		pick: newPicker(rng, w, p.ZipfS),
		tag:  fmt.Sprintf("%s-%d-%d", workload, seed, client),
	}
	for i := 0; i < 8; i++ {
		s.attacker = append(s.attacker, attackerState{
			anonID: anonID(rng), entity: s.pick.key(), next: preloadEpoch.Add(time.Duration(i) * time.Hour),
		})
	}
	return s
}

// Next returns the stream's next op.
func (s *Stream) Next() Op {
	s.n++
	roll := s.rng.Intn(100)
	switch m := s.mix; {
	case roll < m.read:
		return s.read()
	case roll < m.read+m.contribute:
		return s.contribution()
	case roll < m.read+m.contribute+m.reviewPost:
		return Op{Kind: OpReviewPost, Entity: s.pick.key(),
			Author: fmt.Sprintf("%s-r%d", s.tag, s.n), Rating: halfStars(s.rng),
			Text: reviewPhrases[s.rng.Intn(len(reviewPhrases))]}
	default:
		// Which acked key to redeliver is decided at run time: it must be
		// one this client has an acknowledgement for.
		return Op{Kind: OpRedeliver}
	}
}

// read draws from the browse mix: entity 45 / search 25 / reviews 20 /
// directory 10.
func (s *Stream) read() Op {
	switch roll := s.rng.Intn(100); {
	case roll < 45:
		return Op{Kind: OpEntity, Entity: s.pick.key()}
	case roll < 70:
		q := s.w.Queries[s.rng.Intn(len(s.w.Queries))]
		return Op{Kind: OpSearch, Query: &q}
	case roll < 90:
		return Op{Kind: OpReviews, Entity: s.pick.key(), Offset: 5 * s.rng.Intn(3)}
	default:
		op := Op{Kind: OpDirectory}
		if s.rng.Intn(2) == 0 {
			op.Entity = s.w.Kinds[s.rng.Intn(len(s.w.Kinds))] // service filter
		}
		return op
	}
}

func (s *Stream) contribution() Op {
	s.contribs++
	op := Op{
		Kind:   OpContribute,
		Device: fmt.Sprintf("dev-%s-%d", s.tag, s.n),
		Key:    fmt.Sprintf("key-%s-%d", s.tag, s.n),
		Rating: halfStars(s.rng),
		Serial: make([]byte, 32),
	}
	s.rng.Read(op.Serial)
	if s.mix.attackEvery > 0 && s.contribs%s.mix.attackEvery == 0 {
		a := &s.attacker[s.rng.Intn(len(s.attacker))]
		op.Attack, op.AnonID, op.Entity = true, a.anonID, a.entity
		op.Visit = &interaction.Record{Entity: a.entity, Kind: interaction.CallKind,
			Start: a.next, Duration: time.Duration(2+s.rng.Intn(8)) * time.Second}
		a.next = a.next.Add(time.Duration(30+s.rng.Intn(90)) * time.Second)
		return op
	}
	op.Entity, op.AnonID = s.pick.key(), anonID(s.rng)
	visit := honestVisit(s.rng, op.Entity, preloadEpoch.Add(time.Duration(s.n)*time.Minute))
	op.Visit = &visit
	return op
}

// OpenLoopSchedule lays the stream's next ops on a fixed-interval
// timeline and inserts the operator's alternating sweep / retrain every
// p.OperatorEvery. It is finite: the window length decides how many.
func OpenLoopSchedule(p Params, s *Stream, window time.Duration) []Op {
	interval := time.Duration(float64(time.Second) / p.MaintainRate)
	var ops []Op
	nextOperator, operators := p.OperatorEvery, 0
	for at := time.Duration(0); at < window; at += interval {
		if at >= nextOperator {
			kind := OpSweep
			if operators%2 == 1 {
				kind = OpRetrain
			}
			ops = append(ops, Op{Kind: kind, At: at})
			operators++
			nextOperator += p.OperatorEvery
		}
		op := s.Next()
		op.At = at
		ops = append(ops, op)
	}
	return ops
}

// ScheduleBytes serializes the first n ops of every client's stream (or
// the open-loop timeline), the form the determinism test compares.
func ScheduleBytes(workload string, p Params, w *World, seed int64, n int) []byte {
	var ops []Op
	if workload == Maintain {
		ops = OpenLoopSchedule(p, NewStream(workload, p, w, seed, 0), time.Duration(float64(n)/p.MaintainRate*float64(time.Second)))
	} else {
		for c := 0; c < p.Clients; c++ {
			s := NewStream(workload, p, w, seed, c)
			for i := 0; i < n; i++ {
				ops = append(ops, s.Next())
			}
		}
	}
	out, err := json.Marshal(ops)
	if err != nil {
		panic(err) // ops hold only plain data
	}
	return out
}
