package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// Report prints every metric by name with its unit, one column per
// workload: the end-to-end table (with sample counts), the per-layer
// table when the runs were traced, and every failed output check.
func Report(w io.Writer, runs []*Result, traced bool) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
	header := func(title string) {
		fmt.Fprintf(tw, "%s\tunit\t", title)
		for _, r := range runs {
			fmt.Fprintf(tw, "%s\t", r.Workload)
		}
		fmt.Fprintln(tw)
	}
	header("end-to-end")
	for _, d := range endToEndDefs {
		fmt.Fprintf(tw, "%s\t%s\t", d.Name, d.Unit)
		for _, r := range runs {
			v := r.EndToEnd[d.Name]
			switch n := r.Samples[d.Name]; {
			case v == nil:
				fmt.Fprint(tw, "-\t")
			case n > 0:
				fmt.Fprintf(tw, "%.4g (n=%d)\t", *v, n)
			default:
				fmt.Fprintf(tw, "%.4g\t", *v)
			}
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "ops attempted / failed\tcount\t")
	for _, r := range runs {
		fmt.Fprintf(tw, "%d / %d\t", r.Attempted, r.Failed)
	}
	fmt.Fprintln(tw)
	if traced {
		fmt.Fprintln(tw)
		header("per-layer")
		for _, d := range perLayerDefs {
			fmt.Fprintf(tw, "%s\t%s\t", d.Name, d.Unit)
			for _, r := range runs {
				fmt.Fprintf(tw, "%.4g\t", r.PerLayer[d.Name])
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	for _, r := range runs {
		if r.CheckFail == 0 {
			fmt.Fprintf(w, "%s: every output check passed\n", r.Workload)
			continue
		}
		fmt.Fprintf(w, "%s: %d output checks FAILED\n", r.Workload, r.CheckFail)
		for _, msg := range r.Checks {
			fmt.Fprintf(w, "  %s\n", msg)
		}
	}
}

// Compare applies BENCHMARK.json's per-metric bounds to two sets of
// result files and prints one row per workload and metric:
//
//	within      B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  a side's own run-to-run spread is wider than the bound,
//	            so the runs cannot tell
//
// It reports whether any row is worse.
func Compare(w io.Writer, aPaths, bPaths []string) (bool, error) {
	a, spec, err := loadRuns(aPaths)
	if err != nil {
		return false, err
	}
	b, _, err := loadRuns(bPaths)
	if err != nil {
		return false, err
	}
	anyWorse := false
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n)\tB median (n)\tchange\tspread A\tspread B\tbound\tverdict")
	for _, wl := range Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			change := ratio(bm-am, am)
			worseBy := change
			if m.Better == "higher" {
				worseBy = -change
			}
			sa, sb := spread(av), spread(bv)
			verdict := "within"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worseBy > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%d)\t%.4g (%d)\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl, m.Name, m.Unit, am, len(av), bm, len(bv), 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return anyWorse, tw.Flush()
}

// spread is a metric's run-to-run spread as a share of its median: the
// distance between the quartiles with four runs or more (Python's
// statistics.quantiles(n=4), the driver's measure), the whole range
// with fewer.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := median(s)
	if m == 0 || len(s) < 2 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / m
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(len(s)+1)) / 4
		lo := int(pos)
		lo = min(max(lo, 1), len(s)-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / m
}

// loadRuns reads result files and groups metric values by workload and
// metric name. The bounds come from the first file's embedded
// BENCHMARK.json, so a comparison uses the bounds the results were
// measured under.
func loadRuns(paths []string) (map[string]map[string][]float64, *Spec, error) {
	out := make(map[string]map[string][]float64)
	var spec *Spec
	for _, path := range paths {
		data, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return nil, nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if spec == nil {
			spec = f.Benchmark
		}
		for _, r := range f.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, v := range r.EndToEnd {
				if v != nil {
					out[r.Workload][name] = append(out[r.Workload][name], *v)
				}
			}
		}
	}
	if spec == nil {
		return nil, nil, fmt.Errorf("no result files given")
	}
	return out, spec, nil
}
