package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// fworld is the fault-injection test fixture: like world, but each runtime
// gets a fast deterministic rpc client and a tunable breaker.
type fworld struct {
	net      *netsim.Network
	runtimes []*Runtime
}

func newFaultWorld(t *testing.T, n int, cliOpts []rpc.ClientOption, rtOpts ...RuntimeOption) *fworld {
	t.Helper()
	w := &fworld{net: netsim.New(netsim.WithSeed(1))}
	for i := 0; i < n; i++ {
		ep, err := w.net.Attach(wire.NodeID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		node := kernel.NewNode(ep)
		t.Cleanup(func() { node.Close() })
		ktx, err := node.NewContext()
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]RuntimeOption{WithClient(rpc.NewClient(ktx, cliOpts...))}, rtOpts...)
		w.runtimes = append(w.runtimes, NewRuntime(ktx, opts...))
	}
	t.Cleanup(w.net.Close)
	return w
}

func fastClient() []rpc.ClientOption {
	return []rpc.ClientOption{rpc.WithRetryInterval(2 * time.Millisecond), rpc.WithMaxAttempts(4)}
}

// TestDeadlineHeaderRoundTrip: a ctx's values become envelope fields
// where the call leaves (requestEnvelope) and a ctx again where it is
// served (ServeContext).
func TestDeadlineHeaderRoundTrip(t *testing.T) {
	if e := requestEnvelope(context.Background()); e != (wire.Envelope{}) {
		t.Errorf("bare ctx produced envelope %+v", e)
	}
	sc := obs.SpanContext{Trace: 0xABCD, Span: 0x1234}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	ctx = obs.ContextWithSpan(ContextWithSession(WithPriority(ctx, wire.PriorityLow), 5, 2), sc)
	e := requestEnvelope(ctx)
	want := wire.Envelope{Priority: wire.PriorityLow, Session: 5, Seq: 2, Budget: e.Budget, Trace: 0xABCD, Span: 0x1234}
	if e != want || e.Budget <= 0 || e.Budget > 250*time.Millisecond {
		t.Fatalf("envelope = %+v, want %+v with a budget in (0, 250ms]", e, want)
	}

	served, stop := ServeContext(context.Background(), &e)
	defer stop()
	if sid, seq := SessionFromContext(served); sid != 5 || seq != 2 {
		t.Errorf("served ctx carries session (%d, %d), want (5, 2)", sid, seq)
	}
	if got, _ := obs.SpanFromContext(served); got != sc {
		t.Errorf("served ctx carries span %+v, want %+v", got, sc)
	}
	if dl, ok := served.Deadline(); !ok || time.Until(dl) > e.Budget {
		t.Errorf("served ctx deadline = (%v, %v), want within the %v budget", dl, ok, e.Budget)
	}
	// The class was the kernel's to act on; it is not the service's.
	if PriorityFrom(served) != wire.PriorityNormal {
		t.Error("served ctx inherited the request's admission class")
	}
	// No envelope, no change.
	if bare, stop := ServeContext(ctx, &wire.Envelope{}); bare != ctx {
		t.Error("empty envelope derived a new ctx")
	} else {
		stop()
	}
}

// TestSplitHeadersEitherOrder pins the frozen SplitHeaders composition to
// the envelope parser: fields are read in their one canonical order
// (deadline before trace), and bytes that present them in the other — the
// any-order reader this replaced would have taken them — are not an
// envelope, so nothing is consumed.
func TestSplitHeadersEitherOrder(t *testing.T) {
	body := []byte{0x09, 0x00} // an empty codec list
	sc := obs.SpanContext{Trace: 0xABCD, Span: 0x1234}
	both := wire.Envelope{Budget: time.Second, Trace: 0xABCD, Span: 0x1234}.Append(nil)
	both = append(both, body...)
	gotSC, budget, rest := SplitHeaders(both)
	if gotSC != sc || budget != time.Second || len(rest) != len(body) {
		t.Errorf("deadline-first: sc=%v budget=%v rest=%d", gotSC, budget, len(rest))
	}

	rev := wire.Envelope{Trace: 0xABCD, Span: 0x1234}.Append(nil)
	rev = wire.Envelope{Budget: time.Second}.Append(rev)
	rev = append(rev, body...)
	gotSC, budget, rest = SplitHeaders(rev)
	if gotSC.Trace != 0 || budget != 0 || len(rest) != len(rev) {
		t.Errorf("span-first: sc=%v budget=%v rest=%d, want nothing consumed", gotSC, budget, len(rest))
	}

	gotSC, budget, rest = SplitHeaders(body)
	if gotSC.Trace != 0 || budget != 0 || len(rest) != len(body) {
		t.Errorf("headerless: sc=%v budget=%v rest=%d", gotSC, budget, len(rest))
	}
}

// blocker waits for ctx cancellation (or a long fallback) and reports what
// it observed.
type blocker struct {
	observed chan error
}

func (b *blocker) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	select {
	case <-ctx.Done():
		b.observed <- ctx.Err()
		return nil, ctx.Err()
	case <-time.After(5 * time.Second):
		b.observed <- nil
		return []any{}, nil
	}
}

func TestDeadlinePropagatesToServer(t *testing.T) {
	w := newFaultWorld(t, 2, []rpc.ClientOption{rpc.WithRetryInterval(time.Hour)})
	server, client := w.runtimes[0], w.runtimes[1]
	b := &blocker{observed: make(chan error, 1)}
	ref, err := server.Export(b, "Blocker")
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, invokeErr := p.Invoke(ctx, "wait")
	if invokeErr == nil {
		t.Fatal("expired call returned no error")
	}
	select {
	case err := <-b.observed:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("server observed %v, want ctx deadline cancellation", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never observed the client's budget expiring")
	}
}

func TestHeaderlessRequestStillServes(t *testing.T) {
	// A caller that sends a bare [cap, method] payload with no envelope
	// at all is served like any other.
	w := newFaultWorld(t, 2, fastClient())
	server, client := w.runtimes[0], w.runtimes[1]
	ref, err := server.Export(&counter{n: 41}, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeRequest(ref.Cap, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Client().Call(context.Background(), ref.Target, wire.KindRequest, payload)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeResults(client.decoder(), resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].(int64) != 41 {
		t.Errorf("results = %v", results)
	}
}

func TestStubFailsOverOnNotSent(t *testing.T) {
	// First binding points at an object that does not exist ("no such
	// object" — provably never executed), so even a non-idempotent method
	// may redirect to the alternate.
	w := newFaultWorld(t, 3, fastClient())
	backup, client := w.runtimes[1], w.runtimes[2]
	realRef, err := backup.Export(&counter{}, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	bogus := codec.Ref{
		Target: wire.ObjAddr{Addr: w.runtimes[0].Addr(), Object: 9999},
		Type:   "Counter",
	}
	p, err := client.Import(bogus)
	if err != nil {
		t.Fatal(err)
	}
	stub := p.(*Stub)
	stub.SetAlternates([]codec.Ref{bogus, realRef})
	res, err := stub.Invoke(context.Background(), "add", int64(3))
	if err != nil {
		t.Fatalf("failover invoke: %v", err)
	}
	if res[0].(int64) != 3 {
		t.Errorf("result = %v", res[0])
	}
	if stub.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", stub.Failovers())
	}
	if stub.Ref().Target != realRef.Target {
		t.Error("stub did not rebind to the alternate")
	}
}

func TestStubFailoverGatedOnIdempotency(t *testing.T) {
	w := newFaultWorld(t, 3, fastClient())
	primary, backup, client := w.runtimes[0], w.runtimes[1], w.runtimes[2]
	ref1, err := primary.Export(&counter{}, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := backup.Export(&counter{}, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	stub := p.(*Stub)
	stub.SetAlternates([]codec.Ref{ref1, ref2})

	w.net.Crash(1)

	// "add" is not declared idempotent: the attempt may have executed, so
	// the stub must surface the failure instead of replaying it.
	_, err = stub.Invoke(context.Background(), "add", int64(1))
	var ie *InvokeError
	if !errors.As(err, &ie) || ie.Code != CodeUnavailable {
		t.Fatalf("non-idempotent call under crash: err = %v, want unavailable", err)
	}
	if stub.Failovers() != 0 {
		t.Errorf("failovers = %d, want 0 (replay was not licensed)", stub.Failovers())
	}

	// The same call under a ctx that declares it replay-safe fails over.
	res, err := stub.Invoke(WithIdempotent(context.Background()), "add", int64(5))
	if err != nil {
		t.Fatalf("idempotent-marked call: %v", err)
	}
	if res[0].(int64) != 5 {
		t.Errorf("result = %v", res[0])
	}
	if stub.Failovers() == 0 {
		t.Error("no failover recorded")
	}

	// Runtime-wide registration licenses replay too; the stub now bound to
	// node 2 keeps serving.
	client.RegisterIdempotent("Counter", "get")
	if _, err := stub.Invoke(context.Background(), "get"); err != nil {
		t.Fatalf("get after failover: %v", err)
	}
}

func TestCircuitBreakerFailsFastAndRecovers(t *testing.T) {
	w := newFaultWorld(t, 2, fastClient(),
		WithBreakerConfig(health.BreakerConfig{Threshold: 1, Cooldown: 40 * time.Millisecond}))
	server, client := w.runtimes[0], w.runtimes[1]
	ref, err := server.Export(&counter{}, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Import(ref)
	if err != nil {
		t.Fatal(err)
	}

	w.net.Crash(1)
	if _, err := p.Invoke(context.Background(), "get"); err == nil {
		t.Fatal("call to crashed node succeeded")
	}
	if st := client.Breakers().For(ref.Target.Addr.Node).State(); st != health.BreakerOpen {
		t.Fatalf("breaker state after failure = %v, want open", st)
	}

	// Open breaker: the next call is rejected locally, without burning a
	// retransmit budget.
	start := time.Now()
	_, err = p.Invoke(context.Background(), "get")
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("err = %v, want circuit open", err)
	}
	if elapsed > 20*time.Millisecond {
		t.Errorf("open-breaker rejection took %v, want fast-fail", elapsed)
	}

	// Node comes back; after the cooldown one probe closes the breaker.
	w.net.Restart(1)
	time.Sleep(50 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := p.Invoke(context.Background(), "get"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := client.Breakers().For(ref.Target.Addr.Node).State(); st != health.BreakerClosed {
		t.Errorf("breaker state after recovery = %v, want closed", st)
	}
}

func TestProbeCtxExpiryDoesNotWedgeBreaker(t *testing.T) {
	// Regression: a half-open probe that ends with ctx cancellation (no
	// transport evidence either way) used to report nothing, leaving the
	// breaker half-open forever — every later call to the destination got
	// ErrCircuitOpen even after the node recovered.
	w := newFaultWorld(t, 2, fastClient(),
		WithBreakerConfig(health.BreakerConfig{Threshold: 1, Cooldown: 20 * time.Millisecond}))
	server, client := w.runtimes[0], w.runtimes[1]
	ref, err := server.Export(&counter{}, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Import(ref)
	if err != nil {
		t.Fatal(err)
	}

	w.net.Crash(1)
	if _, err := p.Invoke(context.Background(), "get"); err == nil {
		t.Fatal("call to crashed node succeeded")
	}
	br := client.Breakers().For(ref.Target.Addr.Node)
	if br.State() != health.BreakerOpen {
		t.Fatalf("breaker after failed call = %v, want open", br.State())
	}

	// Cooldown passes; the next call is admitted as the probe but its ctx
	// is already cancelled, so it ends without evidence about the node.
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = p.Invoke(ctx, "get")
	if st := br.State(); st == health.BreakerHalfOpen {
		t.Fatal("inconclusive probe left breaker half-open")
	}

	// Node recovers: calls must start succeeding again.
	w.net.Restart(1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := p.Invoke(context.Background(), "get"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after inconclusive probe")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGuardedCallFeedsMonitor(t *testing.T) {
	// Passive evidence: a monitor with no probe loop still learns about a
	// crash from the invocation path.
	w := newFaultWorld(t, 2, fastClient())
	server := w.runtimes[0]
	ref, err := server.Export(&counter{}, "Counter")
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the client runtime with a passive monitor attached.
	ep, err := w.net.Attach(7)
	if err != nil {
		t.Fatal(err)
	}
	node := kernel.NewNode(ep)
	t.Cleanup(func() { node.Close() })
	ktx, err := node.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	mon := health.NewMonitor(ktx, health.WithInterval(0), health.WithSuspectAfter(1), health.WithDeadAfter(2))
	t.Cleanup(func() { mon.Close() })
	rt := NewRuntime(ktx, WithClient(rpc.NewClient(ktx, fastClient()...)), WithHealth(mon))

	p, err := rt.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "get"); err != nil {
		t.Fatal(err)
	}
	if st := mon.State(1); st != health.StateAlive {
		t.Fatalf("state after success = %v", st)
	}
	w.net.Crash(1)
	_, _ = p.Invoke(context.Background(), "get")
	if st := mon.State(1); st == health.StateAlive {
		t.Error("monitor learned nothing from a failed call")
	}
}
