package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	p := SmokeParams()
	w := BuildWorld(p)
	for _, wl := range Workloads {
		a := ScheduleBytes(wl, p, w, 11, 400)
		if b := ScheduleBytes(wl, p, w, 11, 400); !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different schedule", wl)
		}
		if c := ScheduleBytes(wl, p, w, 12, 400); bytes.Equal(a, c) {
			t.Errorf("%s: different seed, same schedule", wl)
		}
	}
}

func TestScheduleFollowsTheMix(t *testing.T) {
	p := SmokeParams()
	w := BuildWorld(p)
	for _, wl := range Workloads {
		var ops []Op
		if err := json.Unmarshal(ScheduleBytes(wl, p, w, 3, 2000), &ops); err != nil {
			t.Fatal(err)
		}
		var reads, writes, operator int
		for _, op := range ops {
			switch {
			case op.Kind.isRead():
				reads++
			case op.Kind.isOperator():
				operator++
			default:
				writes++
			}
		}
		m := mixes[wl]
		if (m.read == 0) != (reads == 0) || (m.read == 100) != (writes == 0) {
			t.Errorf("%s: %d reads and %d writes do not fit mix %+v", wl, reads, writes, m)
		}
		if (wl == Maintain) != (operator > 0) {
			t.Errorf("%s: %d operator ops", wl, operator)
		}
	}
}

func TestPreloadIsAFunctionOfTheSeed(t *testing.T) {
	p := SmokeParams()
	w := BuildWorld(p)
	digests := make(map[int64][2]string)
	for i, seed := range []int64{5, 5, 6} {
		pl := GeneratePreload(p, w, seed)
		dir := filepath.Join(t.TempDir(), "state")
		if err := WritePreload(dir, pl); err != nil {
			t.Fatal(err)
		}
		state, err := StateDigest(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{pl.Digest(), state}
		switch prev, seen := digests[seed]; {
		case seen && prev != got:
			t.Errorf("seed %d: run %d produced another preload: %v then %v", seed, i, prev, got)
		case !seen:
			for other, d := range digests {
				if d[0] == got[0] || d[1] == got[1] {
					t.Errorf("seeds %d and %d share a digest", other, seed)
				}
			}
		}
		digests[seed] = got
		if pl.Want.Histories < p.Histories || pl.Want.Reviews < p.Reviews || len(pl.Tail) < p.TailRecords {
			t.Errorf("seed %d: preload smaller than asked: %+v, tail %d", seed, pl.Want, len(pl.Tail))
		}
	}
}

// TestSpecMatchesTheHarness keeps BENCHMARK.json and the metric tables
// in layers.go naming the same things in the same order.
func TestSpecMatchesTheHarness(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, Workloads[i])
		}
	}
	if len(spec.EndToEnd) != universal {
		t.Fatalf("BENCHMARK.json bounds %d end-to-end metrics, the harness has %d on every workload", len(spec.EndToEnd), universal)
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(spec.PerLayer), len(perLayerDefs))
	}
	for i, m := range spec.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in the harness", i, m, d)
		}
	}
}

func TestSpreadIsThePythonQuartileDistance(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0]; the median is 13.5.
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31.0 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{10, 11, 12}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread of three runs = %v, want the range over the median", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, opsPerS, p50 []float64) string {
		f := resultFile{Benchmark: spec}
		for i := range opsPerS {
			f.Runs = append(f.Runs, &Result{Workload: Browse, EndToEnd: map[string]*float64{
				"ops_per_s": &opsPerS[i], "op_p50_ms": &p50[i],
			}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1000, 1010, 990}, []float64{1.00, 1.01, 0.99})
	same := write("b.json", []float64{1005, 995, 1000}, []float64{1.00, 1.02, 1.00})
	slow := write("c.json", []float64{700, 705, 695}, []float64{1.00, 1.01, 0.99})
	noisy := write("d.json", []float64{1000, 1400, 700}, []float64{1.00, 1.01, 0.99})

	for _, tc := range []struct {
		b         string
		wantWorse bool
		wantWord  string
	}{
		{same, false, "within"},
		{slow, true, "worse"},
		{noisy, false, "unresolved"},
	} {
		var out bytes.Buffer
		worse, err := Compare(&out, []string{base}, []string{tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", filepath.Base(tc.b), worse, tc.wantWorse, out.String())
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "ops_per_s") {
				row = line
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(row), tc.wantWord) {
			t.Errorf("%s: ops_per_s row %q, want verdict %q", filepath.Base(tc.b), row, tc.wantWord)
		}
	}
}

// TestSmoke runs every workload at tiny sizes against real rspd child
// processes — spawn, recovery, load, output checks, kill −9, the traced
// ladder — so a change under internal/ that breaks the harness fails
// `go test -C bench .` before it fails a benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rspd processes")
	}
	t.Cleanup(killAllChildren)
	h, err := NewHarness(SmokeParams(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(h.Root)
	if err != nil {
		t.Fatal(err)
	}
	check := func(res *Result, traced bool) {
		t.Helper()
		if res.CheckFail > 0 {
			t.Errorf("%s: %d output checks failed: %v", res.Workload, res.CheckFail, res.Checks)
		}
		if res.Attempted == 0 || res.Failed > 0 {
			t.Errorf("%s: attempted %d, failed %d", res.Workload, res.Attempted, res.Failed)
		}
		var line struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(DriverLine(res, spec, traced)), &line); err != nil {
			t.Fatal(err)
		}
		want := len(spec.EndToEnd)
		if traced {
			want = len(spec.PerLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("%s: driver line carries %d metrics, want %d", res.Workload, len(line.Metrics), want)
		}
		if !traced {
			for name, m := range line.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, want a positive reading", res.Workload, name, m.Value)
				}
			}
		}
	}
	for _, wl := range Workloads {
		res, err := h.Run(wl, 1, time.Second, true)
		if err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		check(res, true)
		if _, err := os.Stat(filepath.Join(h.Out, "trace-"+wl+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", wl, err)
		}
		absent := map[string][]string{
			Browse:     {"blindsig.sign_us", "store.commit_fsync_us", "gather.fanout_mean_us", "client.sweep_s"},
			Contribute: {"search.search_us", "gather.fanout_mean_us", "client.sweep_s"},
			Maintain:   {"gather.fanout_mean_us"},
			Ring3:      {"client.sweep_s"},
		}
		for _, name := range absent[wl] {
			if v := res.PerLayer[name]; v != 0 {
				t.Errorf("%s: layer metric %s = %v, want 0: the workload bypasses that layer", wl, name, v)
			}
		}
	}
	res, err := h.Run(Contribute, 2, 2*time.Second, false)
	if err != nil {
		t.Fatalf("contribute untraced: %v", err)
	}
	check(res, false)
}
