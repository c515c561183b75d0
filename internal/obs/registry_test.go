package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	a.Add(2)
	if got := b.Value(); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
}

func TestRedefinitionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("redefining a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestVecLabelArity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("v_total", "", "a", "b")
	v.With("1", "2").Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("1")
}

func TestVecSeriesIndependent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("v_total", "", "code")
	v.With("200").Add(5)
	v.With("500").Inc()
	if v.With("200").Value() != 5 || v.With("500").Value() != 1 {
		t.Fatalf("series not independent: 200=%d 500=%d", v.With("200").Value(), v.With("500").Value())
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket
// semantics: a sample exactly on a bound lands in that bound's bucket,
// matching Prometheus.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 5.0, 7.0} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	// le=1: 0.5, 1.0 | le=2: 1.5, 2.0 | le=5: 5.0 | +Inf: 7.0
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+5+7; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramUnsortedBoundsSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{5, 1, 2})
	h.Observe(1.5)
	bounds, counts := h.Buckets()
	if bounds[0] != 1 || bounds[1] != 2 || bounds[2] != 5 {
		t.Fatalf("bounds not sorted: %v", bounds)
	}
	if counts[1] != 1 {
		t.Fatalf("sample in wrong bucket: %v", counts)
	}
}

func TestGaugeFuncSnapshot(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("age_seconds", "", func() float64 { return 42.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := parseExposition(t, b.String())["age_seconds"]; got != 42.5 {
		t.Fatalf("exposed gauge func = %v, want 42.5", got)
	}
}

// TestRegistryConcurrency is the -race hammer: concurrent
// registration, series resolution, increments, observations, and
// exposition must be clean and lose no updates.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	v := r.CounterVec("hammer_vec_total", "", "worker")
	h := r.Histogram("hammer_seconds", "", nil)
	g := r.Gauge("hammer_depth", "")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				v.With(label).Inc()
				h.Observe(float64(i%10) / 1000)
				g.Add(1)
				g.Add(-1)
				if i%500 == 0 {
					// Concurrent registration of the same instruments
					// and a full exposition pass mid-hammer.
					r.Counter("hammer_total", "")
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: %d, want %d", got, workers*perWorker)
	}
	var vecTotal uint64
	for _, l := range []string{"a", "b", "c", "d"} {
		vecTotal += v.With(l).Value()
	}
	if vecTotal != workers*perWorker {
		t.Fatalf("vec lost updates: %d, want %d", vecTotal, workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram lost observations: %d, want %d", h.Count(), workers*perWorker)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge should balance to 0, got %d", g.Value())
	}
}
