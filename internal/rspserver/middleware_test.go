package rspserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"opinions/internal/simclock"
)

// testLogger returns a text slog.Logger writing to w, without
// timestamps, for stable assertions.
func testLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	}))
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
}

func TestWithLoggingWritesOneLine(t *testing.T) {
	var buf bytes.Buffer
	h := Chain(okHandler(), WithLogging(testLogger(&buf)))
	ts := httptest.NewServer(h)
	defer ts.Close()
	if _, err := http.Get(ts.URL + "/api/search"); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/api/search", "status=200"} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line %q missing %q", line, want)
		}
	}
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("expected exactly one line, got %q", line)
	}
}

func TestWithRateLimit(t *testing.T) {
	clock := simclock.NewSim(simclock.Epoch)
	h := Chain(okHandler(), WithRateLimit(3, time.Minute, clock))
	ts := httptest.NewServer(h)
	defer ts.Close()
	status := func() int {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 3; i++ {
		if s := status(); s != 200 {
			t.Fatalf("request %d status %d", i, s)
		}
	}
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("4th request status %d, want 429", resp.StatusCode)
	}
	// RFC 9110 §10.2.3: delay-seconds is a non-negative integer.
	if got := resp.Header.Get("Retry-After"); got != "60" {
		t.Fatalf("Retry-After = %q, want \"60\"", got)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 body is not an ErrorResponse: %+v, %v", e, err)
	}
	// Window rollover refills.
	clock.Advance(61 * time.Second)
	if s := status(); s != 200 {
		t.Fatalf("after window status %d", s)
	}
}

func TestChainOrder(t *testing.T) {
	var order []string
	mk := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(okHandler(), mk("outer"), mk("inner"))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

func TestRateLimitedFullServer(t *testing.T) {
	srv, _ := testServer(t)
	clock := simclock.NewSim(simclock.Epoch)
	h := Chain(srv.Handler(), WithRateLimit(2, time.Minute, clock))
	ts := httptest.NewServer(h)
	defer ts.Close()
	for i := 0; i < 2; i++ {
		if resp := getJSON(t, ts.URL+"/api/meta", nil); resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/api/meta", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
}

// flushRecorder is a ResponseWriter that records Flush calls — the
// underlying writer a streaming handler needs to reach through the
// logging wrapper.
type flushRecorder struct {
	http.ResponseWriter
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestStatusRecorderForwardsFlusher is the regression test for the
// wrapped-handler interface loss: a handler behind WithLogging must
// still see http.Flusher and reach the real writer.
func TestStatusRecorderForwardsFlusher(t *testing.T) {
	under := &flushRecorder{ResponseWriter: httptest.NewRecorder()}
	var sawFlusher bool
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		sawFlusher = ok
		if ok {
			f.Flush()
		}
	}), WithLogging(testLogger(io.Discard)))
	h.ServeHTTP(under, httptest.NewRequest(http.MethodGet, "/", nil))
	if !sawFlusher {
		t.Fatal("handler behind WithLogging lost http.Flusher")
	}
	if under.flushes != 1 {
		t.Fatalf("underlying writer flushed %d times, want 1", under.flushes)
	}
}

// TestStatusRecorderUnwrap checks the Go 1.20 ResponseController path:
// Unwrap must expose the real writer so controllers can flush through
// any depth of wrapping.
func TestStatusRecorderUnwrap(t *testing.T) {
	under := &flushRecorder{ResponseWriter: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: under}
	if got := rec.Unwrap(); got != http.ResponseWriter(under) {
		t.Fatalf("Unwrap = %T, want the wrapped writer", got)
	}
	if err := http.NewResponseController(rec).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush through statusRecorder: %v", err)
	}
	if under.flushes != 1 {
		t.Fatalf("flushes = %d, want 1", under.flushes)
	}
}

func TestStatusRecorderFlushToleratesNonFlusher(t *testing.T) {
	rec := &statusRecorder{ResponseWriter: nonFlusher{}}
	rec.Flush() // must not panic
}

type nonFlusher struct{}

func (nonFlusher) Header() http.Header         { return http.Header{} }
func (nonFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (nonFlusher) WriteHeader(int)             {}

func TestWithRecoveryTurnsPanicInto500(t *testing.T) {
	var buf bytes.Buffer
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}), WithRecovery(testLogger(&buf)))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("panic killed the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(buf.String(), "kaboom") {
		t.Fatal("panic value not logged")
	}
	// The server survives to serve the next request.
	resp2, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
}

func TestWithRecoveryRepanicsAbortHandler(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	h := Chain(inner, WithRecovery(testLogger(io.Discard)))
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want re-panicked ErrAbortHandler", p)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	t.Fatal("ErrAbortHandler was swallowed")
}

// TestWithTimeoutSheds covers both handlers a deadline meets: one that
// stops on its context without writing, and one that ignores it and
// writes late. Either way the client gets the JSON 503, and the late
// write is refused.
func TestWithTimeoutSheds(t *testing.T) {
	lateWrite := make(chan error, 1)
	cases := []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"stops on its context", func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
		}},
		{"writes after the deadline", func(w http.ResponseWriter, r *http.Request) {
			<-r.Context().Done()
			w.WriteHeader(http.StatusOK)
			_, err := w.Write([]byte("late"))
			lateWrite <- err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(Chain(tc.handler, WithTimeout(20*time.Millisecond)))
			defer ts.Close()
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status = %d, want 503 on timeout", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("timeout body is not an ErrorResponse: %+v, %v", e, err)
			}
		})
	}
	if err := <-lateWrite; !errors.Is(err, http.ErrHandlerTimeout) {
		t.Fatalf("write after the deadline returned %v, want http.ErrHandlerTimeout", err)
	}
}

// discardWriter is a ResponseWriter that drops the body, so only the
// middleware's own allocations show in a measurement.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestWithTimeoutWritesInLine pins what the in-line deadline keeps and
// what it no longer costs: the body goes straight to the connection,
// the connection stays reachable through http.ResponseController, and
// a panic still reaches the recovery middleware outside it.
func TestWithTimeoutWritesInLine(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 1<<20)
	cases := []struct {
		name    string
		handler http.HandlerFunc
		outer   []Middleware
		check   func(t *testing.T, h http.Handler)
	}{
		{
			name: "1MiB body is not copied",
			handler: func(w http.ResponseWriter, r *http.Request) {
				_, _ = w.Write(body)
			},
			check: func(t *testing.T, h http.Handler) {
				const requests = 50
				req := httptest.NewRequest(http.MethodGet, "/", nil)
				w := &discardWriter{h: http.Header{}}
				h.ServeHTTP(w, req)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < requests; i++ {
					h.ServeHTTP(w, req)
				}
				runtime.ReadMemStats(&after)
				if per := (after.TotalAlloc - before.TotalAlloc) / requests; per >= 64<<10 {
					t.Fatalf("allocated %d B per 1 MiB response, want < 64 KiB", per)
				}
			},
		},
		{
			name: "ResponseController flushes",
			handler: func(w http.ResponseWriter, r *http.Request) {
				if err := http.NewResponseController(w).Flush(); err != nil {
					writeErr(w, http.StatusInternalServerError, err)
				}
			},
			check: func(t *testing.T, h http.Handler) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
				if rec.Code != http.StatusOK || !rec.Flushed {
					t.Fatalf("status %d, flushed %v, body %q: Flush did not reach the connection", rec.Code, rec.Flushed, rec.Body)
				}
			},
		},
		{
			name: "panic reaches recovery",
			handler: func(w http.ResponseWriter, r *http.Request) {
				panic("kaboom")
			},
			outer: []Middleware{WithRecovery(testLogger(io.Discard))},
			check: func(t *testing.T, h http.Handler) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
				if rec.Code != http.StatusInternalServerError {
					t.Fatalf("status = %d, want 500", rec.Code)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mws := append(tc.outer, WithTimeout(time.Minute))
			tc.check(t, Chain(tc.handler, mws...))
		})
	}
}

func TestWithMaxInFlightSheds(t *testing.T) {
	enter := make(chan struct{})
	release := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enter <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}), WithMaxInFlight(1, 7*time.Second))
	ts := httptest.NewServer(h)
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-enter // the slot is taken

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 shed", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("shed response not a JSON error (err=%v, body=%+v)", err, e)
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
}
