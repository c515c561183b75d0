package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"opinions/internal/simclock"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clock := simclock.NewSim(simclock.Epoch)
	b := &Breaker{FailureThreshold: 3, Cooldown: time.Minute, Clock: clock}
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused attempt %d: %v", i, err)
		}
		b.Failure()
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open after 3 failures", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker allowed traffic (err=%v)", err)
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	clock := simclock.NewSim(simclock.Epoch)
	b := &Breaker{FailureThreshold: 1, Cooldown: time.Minute, Clock: clock}
	b.Allow()
	b.Failure()
	if b.State() != Open {
		t.Fatal("did not open")
	}
	clock.Advance(61 * time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open after cooldown", b.State())
	}
	// Only one probe fits.
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open refused the probe: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second concurrent probe allowed")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after successful probe", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("recovered breaker refused traffic: %v", err)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := simclock.NewSim(simclock.Epoch)
	b := &Breaker{FailureThreshold: 1, Cooldown: time.Minute, Clock: clock}
	b.Allow()
	b.Failure()
	clock.Advance(2 * time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatal("probe refused")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v, want re-opened", b.State())
	}
	// The cooldown restarts from the re-open.
	clock.Advance(30 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("re-opened breaker allowed traffic before a full cooldown")
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := &Breaker{FailureThreshold: 3, Clock: simclock.NewSim(simclock.Epoch)}
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Failure()
		b.Success() // never three in a row
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed (failures never consecutive)", b.State())
	}
}

func TestBreakerDo(t *testing.T) {
	clock := simclock.NewSim(simclock.Epoch)
	b := &Breaker{FailureThreshold: 2, Cooldown: time.Minute, Clock: clock}
	boom := errors.New("down")
	op := func(context.Context) error { return boom }
	for i := 0; i < 2; i++ {
		if err := b.Do(context.Background(), op); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if err := b.Do(context.Background(), op); !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen without running op", err)
	}
	clock.Advance(2 * time.Minute)
	ok := func(context.Context) error { return nil }
	if err := b.Do(context.Background(), ok); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if b.State() != Closed {
		t.Fatal("did not close after successful probe")
	}
}
