package health

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// fakeClock gives tests control over the breaker's notion of now.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	b := NewBreaker(cfg)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerStateString(t *testing.T) {
	for want, s := range map[string]BreakerState{
		"closed": BreakerClosed, "open": BreakerOpen, "half-open": BreakerHalfOpen, "unknown": BreakerState(9),
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second})

	// Closed: calls flow; failures below threshold don't trip.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker rejected")
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v", b.State())
	}

	// Third consecutive failure trips it.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold failures = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}

	// Cooldown elapses: exactly one probe gets through.
	clk.advance(time.Second + time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe allowed after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed in half-open")
	}

	// Probe succeeds: closed again.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected after recovery")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe left state %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker admitted a call immediately")
	}
	// A success reset the consecutive count even while open (another path
	// reached the node): snaps closed.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after out-of-band success = %v", b.State())
	}
}

func TestBreakerProbeTimeoutReadmits(t *testing.T) {
	// A probe whose caller never reports an outcome (e.g. it died, or its
	// result was inconclusive and went unreported) must not wedge the
	// breaker half-open: after another cooldown the probe role is handed
	// to the next caller.
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Second})
	b.Failure()
	clk.advance(2 * time.Second)
	ok, probe := b.Admit()
	if !ok || !probe {
		t.Fatalf("Admit after cooldown = %v, %v, want probe admitted", ok, probe)
	}
	// The probe vanishes without reporting. Until its deadline, no one
	// else gets in; after it, the next caller becomes the probe.
	if b.Allow() {
		t.Fatal("second caller admitted while probe outstanding")
	}
	clk.advance(time.Second + time.Millisecond)
	ok, probe = b.Admit()
	if !ok || !probe {
		t.Fatalf("Admit after probe deadline = %v, %v, want replacement probe", ok, probe)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after replacement probe succeeded = %v", b.State())
	}
}

func TestBreakerPressureWeighsHalfAFailure(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second})
	// Three pressures are one and a half failures: still closed.
	for i := 0; i < 3; i++ {
		b.Pressure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("three pressures at threshold 2 left state %v, want closed", b.State())
	}
	b.Pressure() // the second whole failure
	if b.State() != BreakerOpen {
		t.Fatalf("four pressures at threshold 2 left state %v, want open", b.State())
	}
	b.Pressure() // a straggler while open: keeps cooling
	if b.Allow() {
		t.Fatal("open breaker admitted a call after a straggling pressure")
	}

	// A pressured probe closes the breaker one failure from re-opening.
	clk.advance(time.Second + time.Millisecond)
	if ok, probe := b.Admit(); !ok || !probe {
		t.Fatalf("Admit after cooldown = %v, %v, want probe", ok, probe)
	}
	b.Pressure()
	if b.State() != BreakerClosed {
		t.Fatalf("pressured probe left state %v, want closed", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("one failure after a pressured probe left state %v, want open", b.State())
	}

	// A clean success clears the half-counts.
	b.Success()
	b.Pressure()
	b.Success()
	b.Pressure()
	if b.State() != BreakerClosed {
		t.Fatalf("pressures split by a success tripped the breaker: %v", b.State())
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Second})
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("interleaved failures tripped the breaker: %v", b.State())
	}
}

func TestBreakerDefaults(t *testing.T) {
	cfg := BreakerConfig{}.withDefaults()
	if cfg.Threshold != 3 || cfg.Cooldown != time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestBreakerSetSharesAndObserves(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Minute}, reg, "test.")
	n1, n2 := wire.NodeID(1), wire.NodeID(2)
	if s.For(n1) != s.For(n1) {
		t.Error("same node returned different breakers")
	}
	if s.For(n1) == s.For(n2) {
		t.Error("different nodes shared a breaker")
	}
	s.For(n1).Failure()

	states := make(map[wire.NodeID]BreakerState)
	s.Each(func(node wire.NodeID, st BreakerState) { states[node] = st })
	if states[n1] != BreakerOpen || states[n2] != BreakerClosed {
		t.Errorf("states = %v", states)
	}

	var gauges int
	reg.Each(func(kind, name, _ string) {
		if kind == "gauge" {
			gauges++
		}
	})
	if gauges != 2 {
		t.Errorf("registered %d breaker gauges, want 2", gauges)
	}
}
