package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed interval of the traced run. Times are microseconds
// since the tracer started. Parent is the index of the enclosing span
// in the file's span list (−1 for a root); spans of one operation share
// Op.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// Tracer collects spans in memory; they are written out once, when the
// run ends. A nil *Tracer records nothing, which is how tracing is off.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts a trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

const noSpan = -1

// Begin opens a span and returns its index.
func (t *Tracer) Begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// End closes a span.
func (t *Tracer) End(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Microseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span whose ends were timed by the caller.
func (t *Tracer) Add(name string, start time.Time, d time.Duration, parent, op int) int {
	if t == nil {
		return noSpan
	}
	s := start.Sub(t.t0).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: s, End: s + d.Microseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// Durations returns every span's duration by name.
func (t *Tracer) Durations() map[string]*samples {
	out := make(map[string]*samples)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		setOf(out, s.Name).add(time.Duration(s.End-s.Start) * time.Microsecond)
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// WriteFile writes the trace as one JSON document.
func (t *Tracer) WriteFile(path, workload string, seed int64) error {
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
