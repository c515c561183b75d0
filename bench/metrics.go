package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"opinions/internal/stats"
)

// scrape is one reading of /metrics: series (name plus label set, as
// exposed) → value, summed over the nodes scraped.
type scrape map[string]float64

func scrapeNodes(client *http.Client, nodes []*Node) (scrape, error) {
	out := make(scrape)
	for _, n := range nodes {
		resp, err := client.Get(n.URL + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", n.URL, err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("reading %s/metrics: %w", n.URL, err)
		}
	}
	return out, nil
}

// minus returns the per-series difference s − before.
func (s scrape) minus(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of a family, whatever its labels.
func (s scrape) sum(family string) float64 {
	var total float64
	for k, v := range s {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// histMeanUS is a histogram's mean in microseconds over the scrape
// (Σ seconds ÷ count); 0 when nothing was observed. labels is the
// exposed label set, e.g. `{route="/api/entity"}`, or "" for all series.
func (s scrape) histMeanUS(family, labels string) float64 {
	var sum, count float64
	if labels == "" {
		sum, count = s.sum(family+"_sum"), s.sum(family+"_count")
	} else {
		sum, count = s[family+"_sum"+labels], s[family+"_count"+labels]
	}
	if count == 0 {
		return 0
	}
	return sum / count * 1e6
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// samples is a set of durations, sorted on demand.
type samples struct {
	d      []time.Duration
	sorted bool
}

// setOf returns m[k], creating the set on first use.
func setOf[K comparable](m map[K]*samples, k K) *samples {
	set := m[k]
	if set == nil {
		set = &samples{}
		m[k] = set
	}
	return set
}

func (s *samples) add(d time.Duration) { s.d, s.sorted = append(s.d, d), false }

// extend adds every sample of o.
func (s *samples) extend(o *samples) { s.d, s.sorted = append(s.d, o.d...), false }

func (s *samples) n() int { return len(s.d) }

func (s *samples) sort() {
	if !s.sorted {
		slices.Sort(s.d)
		s.sorted = true
	}
}

// quantile returns the q-th order statistic (nearest rank); 0 when
// empty.
func (s *samples) quantile(q float64) time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	s.sort()
	i := int(math.Ceil(q*float64(len(s.d)))) - 1
	return s.d[min(max(i, 0), len(s.d)-1)]
}

// tail returns the q-th quantile if at least ten samples lie beyond it,
// and otherwise the highest quantile that has ten beyond it, with the
// quantile actually used. With fewer than twenty samples that is the
// median.
func (s *samples) tail(q float64) (time.Duration, float64) {
	n := float64(len(s.d))
	if n == 0 {
		return 0, q
	}
	if beyond := n * (1 - q); beyond < 10 {
		q = math.Max(0.5, 1-10/n)
	}
	return s.quantile(q), q
}

func (s *samples) max() time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	s.sort()
	return s.d[len(s.d)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of plain numbers; 0 when empty.
func median(xs []float64) float64 {
	m, _ := stats.Median(xs) // the only error is ErrEmpty
	return m
}
