package obs

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sampleLine matches one Prometheus text-format sample:
// name{label="value",...} number
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.]+(?:[eE][-+]?[0-9]+)?|\+Inf|NaN)$`)

// parseExposition is a minimal text-format parser: it validates every
// line is a comment or a well-formed sample, that every sample's family
// carries a TYPE, and returns samples by full series name.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q in %q", parts[3], line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q has no preceding TYPE", line)
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

func TestWritePrometheusParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.").Add(7)
	v := r.CounterVec("app_codes_total", "By code.", "code", "method")
	v.With("200", "GET").Add(3)
	v.With("500", `PO"ST\n`).Inc() // escaping must keep this parseable
	r.Gauge("app_depth", "Queue depth.").Set(-2)
	r.GaugeFunc("app_age_seconds", "Age.", func() float64 { return 1.5 })
	h := r.Histogram("app_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())

	if samples["app_requests_total"] != 7 {
		t.Fatalf("counter = %v", samples["app_requests_total"])
	}
	if samples[`app_codes_total{code="200",method="GET"}`] != 3 {
		t.Fatalf("labeled counter missing: %v", samples)
	}
	if samples["app_depth"] != -2 {
		t.Fatalf("gauge = %v", samples["app_depth"])
	}
	if samples["app_age_seconds"] != 1.5 {
		t.Fatalf("gauge func = %v", samples["app_age_seconds"])
	}
	// Histogram: cumulative buckets, +Inf equals _count.
	if samples[`app_seconds_bucket{le="0.1"}`] != 1 {
		t.Fatalf("le=0.1 bucket = %v", samples[`app_seconds_bucket{le="0.1"}`])
	}
	if samples[`app_seconds_bucket{le="1"}`] != 2 {
		t.Fatalf("le=1 bucket = %v", samples[`app_seconds_bucket{le="1"}`])
	}
	if inf, cnt := samples[`app_seconds_bucket{le="+Inf"}`], samples["app_seconds_count"]; inf != 3 || cnt != 3 {
		t.Fatalf("+Inf=%v count=%v, want 3", inf, cnt)
	}
	if got := samples["app_seconds_sum"]; got != 5.55 {
		t.Fatalf("sum = %v", got)
	}
}

func TestWritePrometheusSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "").Inc()
	r.Counter("aaa_total", "").Inc()
	v := r.CounterVec("mid_total", "", "k")
	v.With("b").Inc()
	v.With("a").Inc()

	render := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render()
	var familyOrder []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			familyOrder = append(familyOrder, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(familyOrder) {
		t.Fatalf("families not sorted: %v", familyOrder)
	}
	if strings.Index(out, `mid_total{k="a"}`) > strings.Index(out, `mid_total{k="b"}`) {
		t.Fatal("series not sorted within family")
	}
	if render() != out {
		t.Fatal("exposition not stable across renders")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "help").Add(1)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Fatalf("body %q", rec.Body.String())
	}
}

func TestEmptyVecFamilySkipped(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("never_resolved_total", "", "k")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "never_resolved") {
		t.Fatalf("empty family exposed: %q", b.String())
	}
}

func ExampleRegistry_WritePrometheus() {
	r := NewRegistry()
	r.Counter("example_total", "An example.").Add(2)
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP example_total An example.
	// # TYPE example_total counter
	// example_total 2
}
