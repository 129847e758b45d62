package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

func TestRetryBudgetExhaustionFailsFast(t *testing.T) {
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithDefaultLink(netsim.LinkConfig{LossRate: 0.9999999}), netsim.WithSeed(1)},
		WithRetryInterval(time.Millisecond), WithMaxAttempts(100),
		WithRetryBudget(0.1, 2))
	dst, _ := r.serve(HandlerFunc(echo))

	// The bucket starts with 2 tokens: two retransmissions go out, the
	// third is denied — long before the 100-attempt policy would give up.
	_, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte("x"))
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if !errors.Is(err, ErrTooManyRetries) {
		t.Error("ErrRetryBudget does not wrap ErrTooManyRetries; failure classification will miss it")
	}
	if got := r.client.Stats().Retransmits; got != 2 {
		t.Errorf("retransmits = %d, want exactly the 2 budgeted", got)
	}
}

func TestRetryBudgetRefillsFromFreshCalls(t *testing.T) {
	r := newRig(t, []netsim.NetworkOption{netsim.WithSeed(1)},
		WithRetryInterval(time.Millisecond), WithMaxAttempts(100),
		WithRetryBudget(0.5, 1))
	dst, _ := r.serve(HandlerFunc(echo))

	lossy := netsim.LinkConfig{LossRate: 0.9999999}
	r.net.SetLink(1, 2, lossy)
	if _, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte("x")); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("first lossy call: %v, want ErrRetryBudget", err)
	}
	drained := r.client.Stats().Retransmits

	// Fresh successful traffic earns the budget back (0.5/call).
	r.net.SetLink(1, 2, netsim.LinkConfig{})
	for i := 0; i < 4; i++ {
		if _, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	r.net.SetLink(1, 2, lossy)
	if _, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte("y")); !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("second lossy call: %v, want ErrRetryBudget", err)
	}
	if got := r.client.Stats().Retransmits; got <= drained {
		t.Errorf("retransmits stayed at %d; replenished budget permitted none", got)
	}
}

func TestDeadlineBudgetFastFail(t *testing.T) {
	// The first retransmission would schedule a multi-second backoff wait
	// against a sub-second deadline: the call must fail fast with
	// ErrDeadlineBudget instead of sleeping into the deadline.
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithDefaultLink(netsim.LinkConfig{LossRate: 0.9999999}), netsim.WithSeed(1)},
		WithRetryInterval(5*time.Millisecond), WithMaxAttempts(10))
	r.client.backoffFactor, r.client.backoffMax = 1000, 10*time.Second
	dst, _ := r.serve(HandlerFunc(echo))

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.client.Call(ctx, dst, wire.KindRequest, []byte("x"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineBudget) {
		t.Fatalf("err = %v, want ErrDeadlineBudget", err)
	}
	if !errors.Is(err, ErrTooManyRetries) {
		t.Error("ErrDeadlineBudget does not wrap ErrTooManyRetries")
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("fast-fail took %v; it slept toward the deadline", elapsed)
	}
}

func TestRetryBudgetOffByDefault(t *testing.T) {
	// Without WithRetryBudget the policy alone decides: all attempts are
	// spent even under total loss.
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithDefaultLink(netsim.LinkConfig{LossRate: 0.9999999}), netsim.WithSeed(1)},
		WithRetryInterval(time.Millisecond), WithMaxAttempts(5))
	dst, _ := r.serve(HandlerFunc(echo))
	_, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte("x"))
	if errors.Is(err, ErrRetryBudget) {
		t.Fatalf("budget engaged without opt-in: %v", err)
	}
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
	if got := r.client.Stats().Retransmits; got != 4 {
		t.Errorf("retransmits = %d, want all 4 the policy allows", got)
	}
}
