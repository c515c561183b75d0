// Command bench is the repository's one benchmark: four workloads
// against real cmd/rspd child processes recovering preloaded durable
// state, end-to-end metrics measured with tracing off, and a traced run
// that decomposes them by layer. See README.md in this directory.
//
//	go run -C bench . -seed 1                    # all four workloads, tables, bench/out/result-1.json
//	go run -C bench . -seed 1 -trace 1           # the traced run: per-layer table, bench/out/trace-<workload>.json
//	go run -C bench . -workload browse -seed 1 -seconds 12 -trace 0   # one run, driver protocol
//	go run -C bench . -smoke                     # tiny sizes, every code path
//	go run -C bench . -compare a.json b.json     # apply BENCHMARK.json's bounds to two sets of results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the driver's JSON line: browse | contribute | maintain | ring3 (default: all four, with tables)")
		seed     = flag.Int64("seed", 1, "workload seed: preload draws and op schedule")
		seconds  = flag.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: client spans, in-process layer ladder, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny preload and 2 s windows: checks that everything still runs, measures nothing")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
		}
		worse, err := Compare(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	killChildrenOnSignal()
	defer killAllChildren()

	p := DefaultParams()
	if *smoke {
		p = SmokeParams()
	}
	h, err := NewHarness(p, os.Stderr)
	if err != nil {
		fatal("%v", err)
	}
	spec, err := LoadSpec(h.Root)
	if err != nil {
		fatal("%v", err)
	}
	window := time.Duration(spec.RunSeconds) * time.Second
	if *smoke {
		window = 2 * time.Second
	}
	if *seconds > 0 {
		window = time.Duration(*seconds) * time.Second
	}

	if *workload != "" {
		if _, ok := mixes[*workload]; !ok {
			fatal("unknown workload %q", *workload)
		}
		res, err := h.Run(*workload, *seed, window, *trace == 1)
		if err != nil {
			fatal("%s: %v", *workload, err)
		}
		Report(os.Stderr, []*Result{res}, *trace == 1)
		fmt.Println(DriverLine(res, spec, *trace == 1))
		if res.CheckFail > 0 {
			killAllChildren()
			os.Exit(1)
		}
		return
	}

	var results []*Result
	failed := false
	for _, w := range Workloads {
		h.logf("%s: seed %d, %v window", w, *seed, window)
		res, err := h.Run(w, *seed, window, *trace == 1)
		if err != nil {
			fatal("%s: %v", w, err)
		}
		results = append(results, res)
		failed = failed || res.CheckFail > 0
	}
	Report(os.Stdout, results, *trace == 1)
	path := filepath.Join(h.Out, fmt.Sprintf("result-%d.json", *seed))
	if err := writeResultFile(path, h, spec, *seed, results); err != nil {
		fatal("%v", err)
	}
	h.logf("results written to %s", path)
	if failed {
		killAllChildren()
		os.Exit(1)
	}
}

// fatal reports an error and exits; os.Exit skips deferred calls, so
// the children are reaped here.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	killAllChildren()
	os.Exit(1)
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// DriverLine renders the run as the one JSON object the driver reads:
// every end_to_end metric of BENCHMARK.json with tracing off, every
// per_layer metric with tracing on.
func DriverLine(res *Result, spec *Spec, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if trace {
		for _, m := range spec.PerLayer {
			metrics[m.Name] = value{res.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			if v := res.EndToEnd[m.Name]; v != nil {
				metrics[m.Name] = value{*v, m.Unit}
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.CheckFail == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(line)
}

// resultFile is bench/out/result-<seed>.json.
type resultFile struct {
	Seed      int64     `json:"seed"`
	NProc     int       `json:"nproc"`
	GoVersion string    `json:"go_version"`
	Commit    string    `json:"commit"`
	Params    Params    `json:"params"`
	Benchmark *Spec     `json:"benchmark"`
	Runs      []*Result `json:"runs"`
}

func writeResultFile(path string, h *Harness, spec *Spec, seed int64, runs []*Result) error {
	commit := "unknown" // a checkout without .git, as the driver's, has none
	if out, err := exec.Command("git", "-C", h.Root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	data, err := json.MarshalIndent(resultFile{
		Seed: seed, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit,
		Params: h.P, Benchmark: spec, Runs: runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
