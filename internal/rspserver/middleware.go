package rspserver

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"opinions/internal/simclock"
)

// Middleware wraps an http.Handler.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares left to right (the first listed is the
// outermost).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusRecorder captures the response status and body size for
// logging and the RED metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers keep
// working through the logging wrapper. Embedding the ResponseWriter
// interface alone would hide optional interfaces like http.Flusher
// from type assertions.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer per the Go 1.20
// http.ResponseController convention, so controllers reach the real
// connection for deadlines, hijacking, and flushing.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// WithLogging logs one line per request: method, path, status, bytes,
// latency, remote host. Logger defaults to slog's default logger; the
// record is emitted with the request context, so a logger built on
// obs.NewTraceLogHandler stamps trace_id automatically.
func WithLogging(logger *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			start := time.Now()
			next.ServeHTTP(rec, r)
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				host = r.RemoteAddr
			}
			l := logger
			if l == nil {
				l = slog.Default()
			}
			l.InfoContext(r.Context(), "request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"bytes", rec.bytes,
				"dur", time.Since(start).Round(time.Microsecond),
				"remote", host)
		})
	}
}

// WithRecovery converts handler panics into a logged 500 instead of
// killing the connection (and, for an unrecovered panic in the only
// serving goroutine, the process). http.ErrAbortHandler is re-panicked
// — it is the sanctioned way to abort a response mid-flight, and both
// net/http and the fault injector rely on it propagating.
func WithRecovery(logger *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p)
				}
				metricPanics.Inc()
				l := logger
				if l == nil {
					l = slog.Default()
				}
				l.ErrorContext(r.Context(), "panic serving request",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", p,
					"stack", string(debug.Stack()))
				if !rec.wrote {
					writeErr(rec, http.StatusInternalServerError, errors.New("internal server error"))
				}
			}()
			next.ServeHTTP(rec, r)
		})
	}
}

// WithTimeout bounds each request's handler time at d. The handler runs
// on the request's own goroutine under a context that expires after d,
// and writes straight to the connection. If the deadline passes before
// the handler has written anything, the client gets 503 with a JSON
// error instead, and the handler's later writes fail with
// http.ErrHandlerTimeout. A handler that ignores its context keeps the
// client waiting until it returns or writes; headers set after the
// first write do not reach the client.
func WithTimeout(d time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		if d <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			dw := &deadlineWriter{ResponseWriter: w, ctx: ctx}
			next.ServeHTTP(dw, r.WithContext(ctx))
			dw.start()
		})
	}
}

var errRequestTimeout = errors.New("request timed out")

// deadlineWriter passes a handler's response through unless the first
// write comes after the deadline, which it turns into the 503.
type deadlineWriter struct {
	http.ResponseWriter
	ctx      context.Context
	wrote    bool
	timedOut bool
}

// start commits the response on its first call and reports whether the
// handler's own response may still be written.
func (w *deadlineWriter) start() bool {
	if !w.wrote {
		w.wrote = true
		if errors.Is(w.ctx.Err(), context.DeadlineExceeded) {
			w.timedOut = true
			writeErr(w.ResponseWriter, http.StatusServiceUnavailable, errRequestTimeout)
		}
	}
	return !w.timedOut
}

func (w *deadlineWriter) WriteHeader(code int) {
	if w.start() {
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if !w.start() {
		return 0, http.ErrHandlerTimeout
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the connection (Flush,
// deadlines) through the wrapper.
func (w *deadlineWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// WithMaxInFlight sheds load beyond n concurrently served requests,
// answering 503 with a Retry-After hint instead of queueing without
// bound — under overload a fast, honest "come back later" keeps tail
// latency bounded and lets well-behaved clients (whose resilience
// policies honour Retry-After-ish backoff) spread themselves out.
func WithMaxInFlight(n int, retryAfter time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		if n <= 0 {
			return next
		}
		sem := make(chan struct{}, n)
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				metricSheds.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeErr(w, http.StatusServiceUnavailable, errors.New("server overloaded, retry later"))
			}
		})
	}
}

// WithRateLimit bounds each remote host to ratePerWindow requests per
// window, answering 429 beyond it. This protects the public endpoints
// (search, reviews) from scraping and the crypto endpoints from
// grinding; the anonymous upload path is *already* limited by blind
// tokens, which rate-limit without identifying, so operators typically
// set this well above the token rate.
//
// All hosts share one fixed window: when it rolls, every count is
// dropped with it, so the per-host table never outlives one window.
func WithRateLimit(ratePerWindow int, window time.Duration, clock simclock.Clock) Middleware {
	if ratePerWindow <= 0 {
		ratePerWindow = 300
	}
	if window <= 0 {
		window = time.Minute
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	retryAfter := strconv.Itoa(int((window + time.Second - 1) / time.Second))
	var (
		mu          sync.Mutex
		windowStart = clock.Now()
		counts      = map[string]int{}
	)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil {
				host = r.RemoteAddr
			}
			now := clock.Now()
			mu.Lock()
			if now.Sub(windowStart) >= window {
				windowStart = now
				counts = map[string]int{}
			}
			counts[host]++
			over := counts[host] > ratePerWindow
			mu.Unlock()
			if over {
				metricRateLimited.Inc()
				w.Header().Set("Retry-After", retryAfter)
				writeErr(w, http.StatusTooManyRequests, errors.New("rate limit exceeded"))
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
