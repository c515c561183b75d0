package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceLogHandlerInjectsTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo)
	id := NewTraceID()
	ctx := WithTrace(context.Background(), id)

	logger.InfoContext(ctx, "hello", "k", "v")
	line := buf.String()
	if !strings.Contains(line, "trace_id="+string(id)) {
		t.Fatalf("log line %q missing trace_id", line)
	}

	buf.Reset()
	logger.Info("no trace here")
	if strings.Contains(buf.String(), "trace_id=") {
		t.Fatalf("untraced log line %q has trace_id", buf.String())
	}
}

func TestTraceLogHandlerSurvivesWithAttrsAndGroups(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo).With("component", "spool").WithGroup("g")
	id := NewTraceID()
	logger.InfoContext(WithTrace(context.Background(), id), "msg", "k", 1)
	line := buf.String()
	if !strings.Contains(line, "component=spool") {
		t.Fatalf("line %q lost WithAttrs", line)
	}
	if !strings.Contains(line, string(id)) {
		t.Fatalf("line %q lost trace_id through With/WithGroup", line)
	}
}

func TestTraceLogHandlerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelWarn)
	logger.Info("should be dropped")
	if buf.Len() != 0 {
		t.Fatalf("info leaked through warn gate: %q", buf.String())
	}
	logger.Warn("should pass")
	if buf.Len() == 0 {
		t.Fatal("warn did not pass")
	}
}

func TestSpansHandlerJSON(t *testing.T) {
	ring := NewSpanRing(8)
	id := NewTraceID()
	ring.Record(Span{Trace: id, Method: "POST", Path: "/api/upload", Status: 202, Start: time.Now(), Duration: time.Millisecond})
	ring.Record(Span{Trace: NewTraceID(), Method: "GET", Path: "/api/meta", Status: 200})

	rec := httptest.NewRecorder()
	ring.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var out struct {
		Total uint64 `json:"total"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, rec.Body.String())
	}
	if out.Total != 2 || len(out.Spans) != 2 {
		t.Fatalf("total=%d spans=%d, want 2/2", out.Total, len(out.Spans))
	}

	// Filtered by trace.
	rec = httptest.NewRecorder()
	ring.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?trace="+string(id), nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 1 || out.Spans[0].Trace != id {
		t.Fatalf("filter returned %+v", out.Spans)
	}

	// Garbage trace ids are rejected, not reflected.
	rec = httptest.NewRecorder()
	ring.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?trace=zzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace id answered %d, want 400", rec.Code)
	}
}

func TestRegisterProcessMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterProcessMetrics(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())
	if v, ok := samples["go_goroutines"]; !ok || v < 1 {
		t.Fatalf("go_goroutines = %v", v)
	}
	if v, ok := samples["go_heap_alloc_bytes"]; !ok || v <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %v", v)
	}
}
