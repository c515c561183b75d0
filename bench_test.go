// Package opinions' root benchmark harness: one benchmark per paper
// artifact (Table 1, Figures 1a–c, 3a–b) and per extension experiment
// (E1–E6), plus ablations for the design knobs DESIGN.md calls out.
//
// Run them all:
//
//	go test -bench=. -benchmem
//
// The expensive substrates (the crawled universe, the simulated
// deployment) are built once per process and shared; each benchmark
// times the analysis that regenerates its artifact from that substrate,
// so the numbers reflect the experiment pipeline, not world generation.
package opinions

import (
	"io"
	"sync"
	"testing"
	"time"

	"opinions/internal/aggregate"
	"opinions/internal/experiments"
	"opinions/internal/fraud"
	"opinions/internal/history"
	"opinions/internal/inference"
	"opinions/internal/world"
)

var (
	univOnce sync.Once
	univ     *experiments.CrawlUniverse
	univErr  error

	depOnce sync.Once
	dep     *experiments.Deployment
	depErr  error
)

func benchUniverse(b *testing.B) *experiments.CrawlUniverse {
	b.Helper()
	univOnce.Do(func() {
		univ, univErr = experiments.BuildCrawlUniverse(world.TestDirectoryConfig())
	})
	if univErr != nil {
		b.Fatal(univErr)
	}
	return univ
}

func benchDeployment(b *testing.B) *experiments.Deployment {
	b.Helper()
	depOnce.Do(func() {
		dep, depErr = experiments.RunDeployment(experiments.DeployConfig{
			Seed: 5, Users: 100, Days: 60, KeyBits: 512,
		})
	})
	if depErr != nil {
		b.Fatal(depErr)
	}
	return dep
}

// BenchmarkTable1Crawl regenerates Table 1 (entity totals per service)
// from the crawled universe.
func BenchmarkTable1Crawl(b *testing.B) {
	u := benchUniverse(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunTable1(u)
		res.Render(io.Discard)
	}
}

// BenchmarkFig1aCDF regenerates Figure 1(a): per-entity review CDFs.
func BenchmarkFig1aCDF(b *testing.B) {
	u := benchUniverse(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig1a(u).Render(io.Discard)
	}
}

// BenchmarkFig1bCDF regenerates Figure 1(b): per-query ≥50-review CDFs.
func BenchmarkFig1bCDF(b *testing.B) {
	u := benchUniverse(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig1b(u).Render(io.Discard)
	}
}

// BenchmarkFig1c regenerates Figure 1(c): interaction/feedback gap.
func BenchmarkFig1c(b *testing.B) {
	u := benchUniverse(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig1c(u).Render(io.Discard)
	}
}

// BenchmarkFig3 regenerates both panels of Figure 3 (dentist selection,
// histograms, distance correlations) from the deployment's anonymous
// histories.
func BenchmarkFig3(b *testing.B) {
	d := benchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(d)
		if err != nil {
			b.Skip(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkE1Coverage regenerates E1 (opinions-per-entity coverage).
func BenchmarkE1Coverage(b *testing.B) {
	d := benchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunE1(d).Render(io.Discard)
	}
}

// BenchmarkE2Inference regenerates E2 (inference accuracy vs naive).
func BenchmarkE2Inference(b *testing.B) {
	d := benchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE2(d)
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkE3Fraud regenerates E3 (attack detection + attacker cost).
func BenchmarkE3Fraud(b *testing.B) {
	d := benchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunE3(d, []int{1, 5, 10}).Render(io.Discard)
	}
}

// BenchmarkE4Privacy regenerates E4 (timing-linkage vs mix window).
func BenchmarkE4Privacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunE4(experiments.DefaultE4Config()).Render(io.Discard)
	}
}

// BenchmarkE5Energy regenerates E5 (sensing energy/recall sweep).
func BenchmarkE5Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunE5(experiments.E5Config{Seed: 3, Users: 10, Days: 7}).Render(io.Discard)
	}
}

// BenchmarkE6Groups regenerates E6 (group dedup inflation).
func BenchmarkE6Groups(b *testing.B) {
	d := benchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunE6(d).Render(io.Discard)
	}
}

// BenchmarkE7CF regenerates E7 (collaborative filtering vs search-based
// inferred opinions).
func BenchmarkE7CF(b *testing.B) {
	d := benchDeployment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunE7(d).Render(io.Discard)
	}
}

// BenchmarkE8Incentives regenerates E8 (reminder campaigns vs implicit
// inference); this one builds three small deployments per iteration.
func BenchmarkE8Incentives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE8(experiments.E8Config{Seed: 21, Users: 30, Days: 20, Boost: 3})
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkE9Retention regenerates E9 (retention privacy/utility sweep);
// builds one small deployment per retention setting per iteration.
func BenchmarkE9Retention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE9(experiments.E9Config{
			Seed: 31, Users: 30, Days: 20,
			Retentions: []time.Duration{7 * 24 * time.Hour, 30 * 24 * time.Hour},
		})
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// ---------------------------------------------------------------------
// Ablations: the design knobs DESIGN.md calls out.
// ---------------------------------------------------------------------

// BenchmarkAblationGroupWindow sweeps the co-arrival window of §4.1's
// group dedup over the deployment's restaurant histories.
func BenchmarkAblationGroupWindow(b *testing.B) {
	d := benchDeployment(b)
	_, _, hists := d.Server.Stores()
	var all []*history.EntityHistory
	for _, key := range hists.Entities() {
		if e := d.Server.Engine().Entity(key); e != nil && e.Category == "restaurant" {
			all = append(all, hists.ByEntity(key)...)
		}
	}
	for _, window := range []time.Duration{2 * time.Minute, 12 * time.Minute, time.Hour} {
		b.Run(window.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aggregate.DedupGroups(all, window)
			}
		})
	}
}

// BenchmarkAblationFraudThreshold sweeps the §4.3 detector threshold.
func BenchmarkAblationFraudThreshold(b *testing.B) {
	d := benchDeployment(b)
	_, _, hists := d.Server.Stores()
	var all []*history.EntityHistory
	for _, key := range hists.Entities() {
		all = append(all, hists.ByEntity(key)...)
	}
	profile := fraud.BuildProfile(all)
	for _, thr := range []float64{0.75, 1.5, 3.0} {
		b.Run(thrName(thr), func(b *testing.B) {
			det := &fraud.Detector{Profile: profile, Threshold: thr}
			for i := 0; i < b.N; i++ {
				det.Filter(all)
			}
		})
	}
}

func thrName(thr float64) string {
	switch {
	case thr < 1:
		return "strict"
	case thr < 2:
		return "default"
	default:
		return "lenient"
	}
}

// BenchmarkAblationAbstention sweeps the predictor's evidence floor.
func BenchmarkAblationAbstention(b *testing.B) {
	d := benchDeployment(b)
	if !d.ModelTrained {
		b.Skip("no model")
	}
	m := d.Server.Models().Global
	// Collect evidence once.
	var evs []inference.EntityEvidence
	for _, agent := range d.Agents {
		for _, v := range agent.Inferences() {
			evs = append(evs, agent.Evidence(v.Entity))
		}
	}
	for _, minEv := range []int{2, 3, 6} {
		b.Run(minName(minEv), func(b *testing.B) {
			p := inference.NewPredictor(m)
			p.MinInteractions = minEv
			for i := 0; i < b.N; i++ {
				for _, ev := range evs {
					p.Infer(ev)
				}
			}
		})
	}
}

func minName(n int) string {
	switch n {
	case 2:
		return "min2"
	case 3:
		return "min3"
	default:
		return "min6"
	}
}
