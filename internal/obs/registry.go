// Package obs is the observability substrate for the reproduction: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms, all safe under -race), Prometheus
// text-format exposition, lightweight 128-bit request tracing, and an
// in-memory ring of recent request spans.
//
// The registry follows the Prometheus default-registry idiom:
// packages declare their instruments once against Default at init time
// and hold the returned handles, so the hot path is a single atomic
// add — no lock, no map lookup, no allocation. Registration is
// get-or-create: asking twice for the same name returns the same
// instrument, which is what lets independently initialized packages
// (and tests) share one registry safely.
//
// Tracing is deliberately minimal: a trace ID is 16 bytes of
// client-drawn randomness, hex-encoded, carried on the X-Trace-Id
// header and in a context value. It identifies one HTTP exchange and
// nothing else — see DESIGN.md "Observability" for why trace IDs must
// never be attached to uploads before the anonymity mix.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, in-flight
// requests). Safe for concurrent use and lock-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative to decrease). Additive
// updates compose across instances: N spools each adding their own
// put/take deltas yield the aggregate depth.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative-on-exposition buckets with inclusive upper bounds, plus a
// running sum and count. Observe is lock-free: one atomic add into the
// bucket, one into the count, and a CAS loop folding the sample into
// the float64 sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; the +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// DefBuckets is the default latency schedule in seconds: 1ms to 10s,
// roughly geometric — wide enough for an injected-chaos tail, fine
// enough to see a cache hit.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; equal goes in (le is inclusive).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and the per-bucket (non-cumulative)
// counts; the final count is the +Inf bucket.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return h.bounds, out
}

// series is one labeled instance inside a family.
type series struct {
	labelValues []string
	metric      any // *Counter, *Gauge, or *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   string // "counter", "gauge", "histogram"
	labels []string
	bounds []float64      // histograms only
	fn     func() float64 // gauge funcs only

	mu     sync.RWMutex
	series map[string]*series
}

func (f *family) get(values []string) (*series, bool) {
	key := labelKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	return s, ok
}

func (f *family) getOrCreate(values []string, mk func() any) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if s, ok := f.get(values); ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := labelKey(values)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...), metric: mk()}
	f.series[key] = s
	return s
}

func labelKey(values []string) string { return strings.Join(values, "\xff") }

// Registry holds metric families. NewRegistry for an isolated one;
// most code uses Default.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// Default is the process-wide registry; package-level instruments
// register here and cmd binaries expose it.
var Default = NewRegistry()

// lookup returns the family for name, creating it on first use and
// panicking on a redefinition with a different shape — that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name, help, kind string, labels []string, bounds []float64, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q redefined as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q redefined with labels %v, was %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		fn:     fn,
		series: map[string]*series{},
	}
	r.fams[name] = f
	return f
}

// Counter returns the unlabeled counter with this name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, "counter", nil, nil, nil)
	return f.getOrCreate(nil, func() any { return &Counter{} }).metric.(*Counter)
}

// CounterVec declares a counter family with labels; With resolves one
// series.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.lookup(name, help, "counter", labels, nil, nil)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values (one per
// declared label name, in order), creating the series on first use.
// Hold the result on hot paths — the lookup takes a read lock.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.getOrCreate(values, func() any { return &Counter{} }).metric.(*Counter)
}

// Gauge returns the unlabeled gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, "gauge", nil, nil, nil)
	return f.getOrCreate(nil, func() any { return &Gauge{} }).metric.(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at exposition
// time — for values that are cheaper to derive than to maintain
// (goroutine counts, heap bytes, oldest-entry age).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookup(name, help, "gauge", nil, nil, fn)
}

// GaugeVec declares a gauge family with labels; With resolves one
// series. The sharded commit pipeline uses it for per-stripe values
// (active segment size per WAL lane).
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.lookup(name, help, "gauge", labels, nil, nil)}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values, creating the
// series on first use. Hold the result on hot paths.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.getOrCreate(values, func() any { return &Gauge{} }).metric.(*Gauge)
}

// Histogram returns the unlabeled histogram with this name. bounds are
// upper bucket bounds in ascending order (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.lookup(name, help, "histogram", nil, bounds, nil)
	return f.getOrCreate(nil, func() any { return newHistogram(f.bounds) }).metric.(*Histogram)
}

// HistogramVec declares a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{fam: r.lookup(name, help, "histogram", labels, bounds, nil)}
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.fam
	return f.getOrCreate(values, func() any { return newHistogram(f.bounds) }).metric.(*Histogram)
}

// families returns the families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
