package main

import "time"

// Params fixes every size, rate and limit a run uses. BENCHMARK.json's
// schema has no room for them, so they live here; every result file
// records the values it was measured at.
type Params struct {
	// World: the catalog rspd builds for -world directory.
	WorldScale float64 `json:"world_scale"`
	WorldSeed  int64   `json:"world_seed"`

	// Preload: durable state written through internal/store before the
	// server starts, so recovery and every read work on real evidence.
	Histories   int     `json:"histories"`    // anonymous (user, entity) histories, 3 records each on average, one rating each
	Reviews     int     `json:"reviews"`      // explicit reviews
	TrainPairs  int     `json:"train_pairs"`  // volunteered training pairs, followed by one retrain
	TailRecords int     `json:"tail_records"` // committed after the compaction: the WAL tail recovery replays
	AttackShare float64 `json:"attack_share"` // share of preloaded histories shaped by fraud.AllAttacks
	ZipfS       float64 `json:"zipf_s"`       // entity popularity exponent, preload and reads alike

	KeyBits int `json:"keybits"` // rspd -keybits

	// CompactEvery is rspd's -compact-every per workload. A compaction of
	// the preloaded state costs over a second of CPU and doubles the
	// heap, and the server is slow for up to a second around it, so a
	// window that holds one on some runs and none on others reads ±10 %
	// from that alone. browse, contribute and ring3 never compact and
	// measure their own path undisturbed. maintain's contributions
	// arrive at a fixed 60 a second, so 330 records after a warm-up
	// holding 150 put one compaction at 3 s of each 5 s episode, between
	// the operator's sweep at 2 s and retrain at 4 s: where a compaction
	// and a sweep meet, the stall is several times either one's, and
	// whether they meet would otherwise be luck.
	CompactEvery map[string]int `json:"compact_every"`

	// Load shape.
	Clients        int            `json:"clients"`         // connections and closed-loop clients; nproc of the reference box
	WarmupOps      map[string]int `json:"warmup_ops"`      // unmeasured ops per set-up: one to two seconds of load
	Episodes       int            `json:"episodes"`        // fresh set-ups per run, each measuring its share of the window
	RecoveryProbes int            `json:"recovery_probes"` // starts timed for recover_s, with a 512-bit key
	MaintainRate   float64        `json:"maintain_rate"`   // open-loop ops/s
	OperatorEvery  time.Duration  `json:"operator_every"`  // maintain: alternate fraud sweep / retrain
	SearchLimit    int            `json:"search_limit"`

	// Latency limits for slo_miss_share.
	ReadLimit       time.Duration `json:"read_limit"`
	ContributeLimit time.Duration `json:"contribute_limit"`

	// Traced run.
	LadderSample int `json:"ladder_sample"` // requests per route replayed in-process
}

// DefaultParams are the sizes BENCHMARK.json's bounds were measured at.
func DefaultParams() Params {
	return Params{
		WorldScale: 0.05, WorldSeed: 7,
		Histories: 40000, Reviews: 20000, TrainPairs: 2000, TailRecords: 3000,
		AttackShare: 0.02, ZipfS: 1.1,
		KeyBits:      2048,
		CompactEvery: map[string]int{Browse: -1, Contribute: -1, Maintain: 330, Ring3: -1},
		Clients:      2,
		WarmupOps:    map[string]int{Browse: 8000, Contribute: 500, Maintain: 750, Ring3: 1200},
		Episodes:     3, RecoveryProbes: 5,
		MaintainRate: 300, OperatorEvery: 2 * time.Second, SearchLimit: 20,
		ReadLimit: 25 * time.Millisecond, ContributeLimit: 100 * time.Millisecond,
		LadderSample: 500,
	}
}

// SmokeParams keep every code path of the four workloads — process
// spawn, recovery, compaction, kill −9 — inside a unit-test budget.
func SmokeParams() Params {
	p := DefaultParams()
	p.WorldScale = 0.01
	p.Histories, p.Reviews, p.TrainPairs, p.TailRecords = 400, 200, 60, 100
	p.KeyBits = 1024
	p.CompactEvery = map[string]int{Browse: -1, Contribute: -1, Maintain: 16, Ring3: -1}
	p.WarmupOps = map[string]int{Browse: 40, Contribute: 40, Maintain: 40, Ring3: 40}
	p.Episodes, p.RecoveryProbes = 2, 1
	p.MaintainRate, p.OperatorEvery = 100, 400*time.Millisecond
	p.LadderSample = 20
	return p
}
