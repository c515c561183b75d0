// Package resilience is the shared failure-handling layer for every
// network path in the reproduction: the device agent uploading over
// flaky mobile links (§4.2), the measurement crawler sweeping a live
// service (§2), and operators calling the RSP's API. It provides a
// context-aware retry policy with jittered exponential backoff and
// per-attempt timeouts, and a three-state circuit breaker.
//
// The paper's architecture quietly assumes delivery: "an RSP's app can
// upload all of its inferences asynchronously" only produces a
// comprehensive repository if those asynchronous uploads eventually
// arrive. This package supplies the eventually.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy describes how an operation retries. The zero value is usable
// and retries 4 attempts starting at 100ms. Policies are values: copy
// freely, share between goroutines (provided Jitter and Sleep are
// thread-safe, which the defaults are).
type Policy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 4). 1 means no retries.
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry
	// (default 100ms). The pre-jitter delay doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter delay (default 30s). The jittered
	// delay can reach twice this.
	MaxDelay time.Duration
	// PerAttemptTimeout bounds each individual attempt via a derived
	// context; 0 leaves attempts unbounded (the parent context still
	// applies).
	PerAttemptTimeout time.Duration
	// Jitter returns a sample in [0, 1); the delay before retry k is
	// uniform in [d, 2d) where d = min(BaseDelay·2^k, MaxDelay).
	// Defaults to the global math/rand source (thread-safe). Pass a
	// seeded source for reproducible schedules, or a constant 0 for
	// exact exponential doubling.
	Jitter func() float64
	// Sleep replaces the delay between attempts, for tests. When nil,
	// Do sleeps on a timer and aborts the wait as soon as ctx is
	// cancelled. Sleep is never called after ctx is done.
	Sleep func(time.Duration)
	// Retryable classifies errors; a false return stops retrying.
	// Defaults to "retry everything except Permanent-wrapped errors".
	Retryable func(error) bool
}

func (p Policy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 4
}

func (p Policy) base() time.Duration {
	if p.BaseDelay > 0 {
		return p.BaseDelay
	}
	return 100 * time.Millisecond
}

func (p Policy) cap() time.Duration {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 30 * time.Second
}

// Delay returns the jittered backoff before retry attempt (0-based: the
// delay between the first failure and the second try is Delay(0)). The
// result is uniform in [d, 2d) with d = min(BaseDelay·2^attempt,
// MaxDelay), so it never undershoots the exponential schedule and never
// more than doubles it.
func (p Policy) Delay(attempt int) time.Duration {
	d := p.base()
	for i := 0; i < attempt && d < p.cap(); i++ {
		d *= 2
	}
	if d > p.cap() {
		d = p.cap()
	}
	jitter := p.Jitter
	if jitter == nil {
		jitter = rand.Float64
	}
	return d + time.Duration(jitter()*float64(d))
}

func (p Policy) retryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	return !IsPermanent(err)
}

// sleep waits out d, honouring cancellation. It returns ctx.Err() when
// the context is done, without sleeping at all if it already was.
func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op under the policy: try, classify, back off, try again. It
// returns nil on the first success, the error unchanged when it is not
// retryable, the last error when attempts run out, and a joined
// cancellation+last error when the context dies between attempts. Each
// attempt receives a context bounded by PerAttemptTimeout (when set).
func (p Policy) Do(ctx context.Context, op func(context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	for attempt := 0; attempt < p.attempts(); attempt++ {
		if attempt > 0 {
			if cerr := p.sleep(ctx, p.Delay(attempt-1)); cerr != nil {
				if lastErr != nil {
					return fmt.Errorf("%w (retry abandoned: %w)", lastErr, cerr)
				}
				return cerr
			}
		}
		actx := ctx
		cancel := context.CancelFunc(func() {})
		if p.PerAttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		err := op(actx)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		if !p.retryable(err) {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w (retry abandoned: %w)", lastErr, ctx.Err())
		}
	}
	return lastErr
}

// permanentError marks an error as not worth retrying while staying
// transparent to errors.Is/As and to message sniffing.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so the default classification will not retry it.
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent. A per-attempt deadline is deliberately NOT permanent —
// retrying a timed-out attempt is the point of per-attempt timeouts;
// death of the parent context is detected by Do itself.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}
