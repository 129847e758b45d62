package repro

// Overload chaos tests: a seeded deployment is driven past its capacity
// (or through a partition) while the overload machinery — adaptive
// admission control, pushback, retry budgets, hedged reads — keeps the
// node doing useful work. Invariants are asserted from registry metrics,
// not sleeps: goodput stays ≥ 70% of measured capacity at 2× offered
// load, shed requests fail fast with CodeOverload instead of piling into
// deadline timeouts, the retransmit ratio stays inside the retry budget
// through a 3s partition, and hedged reads cut tail latency against a
// sporadically-slow primary.
//
// Named TestStress* (not TestChaos*) so `make chaos` and `make stress`
// select disjoint suites; both run under -race.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// stressWorld is a deployment whose node 1 runs behind an adaptive
// admission controller; all runtimes share one observer so every metric
// lands in one registry.
type stressWorld struct {
	net *netsim.Network
	obs *obs.Observer
	adm *overload.Controller
	rts []*core.Runtime // rts[0] serves behind admission
}

func newStressWorld(t *testing.T, n int, admCfg *overload.Config, cliOpts []rpc.ClientOption, rtOpts ...core.RuntimeOption) *stressWorld {
	t.Helper()
	w := &stressWorld{
		net: netsim.New(netsim.WithSeed(chaosSeed())),
		obs: obs.NewObserver(),
	}
	t.Cleanup(w.net.Close)
	for i := 1; i <= n; i++ {
		ep, err := w.net.Attach(wire.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		var nodeOpts []kernel.NodeOption
		if i == 1 && admCfg != nil {
			w.adm = overload.NewController(*admCfg, w.obs.Registry, "server.")
			nodeOpts = append(nodeOpts, kernel.WithAdmission(w.adm))
		}
		node := kernel.NewNode(ep, nodeOpts...)
		t.Cleanup(func() { node.Close() })
		ktx, err := node.NewContext()
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]core.RuntimeOption{
			core.WithObserver(w.obs),
			core.WithClient(rpc.NewClient(ktx, append(cliOpts, rpc.WithObserver(w.obs))...)),
		}, rtOpts...)
		w.rts = append(w.rts, core.NewRuntime(ktx, opts...))
	}
	return w
}

// busySvc burns a fixed service time per call — the capacity anchor.
type busySvc struct{ d time.Duration }

func (s *busySvc) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	select {
	case <-time.After(s.d):
		return []any{true}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestStressOverloadShedsAtTwiceOfferedLoad(t *testing.T) {
	leakCheck(t)
	const limit = 4
	const serviceTime = 5 * time.Millisecond
	w := newStressWorld(t, 2, &overload.Config{
		MinLimit: limit, MaxLimit: limit, InitialLimit: limit,
		QueueLimit: 2 * limit, QueueDeadline: 10 * time.Millisecond,
	}, []rpc.ClientOption{rpc.WithRetryInterval(100 * time.Millisecond)})
	ref, err := w.rts[0].Export(&busySvc{d: serviceTime}, "Busy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.rts[1].Import(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Closed loop at ~4× the slot count: with limit slots of serviceTime
	// each, this offers at least 2× the node's capacity.
	const workers = 4 * limit
	var successes, overloads, timeouts, others atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, err := p.Invoke(ctx, "work")
				cancel()
				switch {
				case err == nil:
					successes.Add(1)
				case core.IsOverload(err):
					overloads.Add(1)
					time.Sleep(time.Millisecond) // token nod to the hint
				case errors.Is(err, context.DeadlineExceeded):
					timeouts.Add(1)
				default:
					others.Add(1)
				}
			}
		}()
	}
	start := time.Now()
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	// The node shed rather than queueing everyone into timeouts.
	if overloads.Load() == 0 || w.adm.Shed() == 0 {
		t.Fatalf("no sheds at 2x load: client saw %d, controller counted %d", overloads.Load(), w.adm.Shed())
	}
	if timeouts.Load() > 0 {
		t.Errorf("deadline-timeout pileup: %d calls timed out (want 0; sheds must fail fast)", timeouts.Load())
	}
	if n := others.Load(); n > 0 {
		t.Errorf("%d calls failed with non-overload errors", n)
	}

	// Goodput ≥ 70% of capacity, both sides measured from the registry:
	// capacity = limit / mean handler latency (the controller's own
	// latency histogram, so sleep overshoot cancels out).
	mean := w.obs.Registry.Histogram("server.overload.latency").Snapshot().Mean
	if mean <= 0 {
		t.Fatal("no handler latency recorded")
	}
	capacity := float64(limit) / mean.Seconds()              // calls/sec the slots can do
	goodput := float64(successes.Load()) / elapsed.Seconds() // calls/sec that succeeded
	t.Logf("goodput %.0f/s vs capacity %.0f/s (%.0f%%), %d ok / %d shed / mean %s",
		goodput, capacity, 100*goodput/capacity, successes.Load(), overloads.Load(), mean)
	if goodput < 0.7*capacity {
		t.Errorf("goodput %.0f/s is below 70%% of capacity %.0f/s: shedding is eating useful work", goodput, capacity)
	}
}

func TestStressRetryRatioBoundedUnderPartition(t *testing.T) {
	leakCheck(t)
	const ratio, burst = 0.1, 10
	w := newStressWorld(t, 2, nil, []rpc.ClientOption{
		rpc.WithRetryInterval(5 * time.Millisecond), rpc.WithMaxAttempts(10),
		rpc.WithRetryBudget(ratio, burst),
	}, core.WithBreakerConfig(health.BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond}))
	ref, err := w.rts[0].Export(&busySvc{d: 0}, "Busy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.rts[1].Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	client := w.rts[1].Client()

	var healthyOK, healedOK atomic.Uint64
	phase := make(chan int, 1) // 0 healthy, 1 partitioned, 2 healed
	phase <- 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				_, err := p.Invoke(ctx, "work")
				cancel()
				if err == nil {
					select {
					case ph := <-phase:
						if ph == 0 {
							healthyOK.Add(1)
						} else if ph == 2 {
							healedOK.Add(1)
						}
						phase <- ph
					default:
					}
				}
			}
		}()
	}

	time.Sleep(500 * time.Millisecond) // healthy warm-up earns budget
	<-phase
	phase <- 1
	w.net.Partition(1, 2)
	time.Sleep(3 * time.Second) // the 3s partition the budget must ride out
	w.net.Heal(1, 2)
	<-phase
	phase <- 2
	time.Sleep(time.Second) // breaker cooldown + probe + steady traffic
	close(stop)
	wg.Wait()

	st := client.Stats()
	if healthyOK.Load() == 0 || healedOK.Load() == 0 {
		t.Fatalf("workload did not run on both sides of the partition (%d before, %d after)",
			healthyOK.Load(), healedOK.Load())
	}
	// The contract: retransmissions stay within 1.1× of what the budget
	// ratio licenses (plus the burst the bucket started with).
	allowed := 1.1 * (ratio*float64(st.Calls) + burst)
	t.Logf("calls %d, retransmits %d (allowed %.0f)", st.Calls, st.Retransmits, allowed)
	if float64(st.Retransmits) > allowed {
		t.Errorf("retry storm: %d retransmits on %d calls exceeds budget allowance %.0f",
			st.Retransmits, st.Calls, allowed)
	}
}

// tailSvc answers instantly except every slowEvery-th call, which takes
// slowFor — the classic sporadic-tail server hedging exists for.
type tailSvc struct {
	n         atomic.Uint64
	slowEvery uint64
	slowFor   time.Duration
}

func (s *tailSvc) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	if s.n.Add(1)%s.slowEvery == 0 {
		select {
		case <-time.After(s.slowFor):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return []any{int64(1)}, nil
}

func TestStressHedgedReadsCutTailLatency(t *testing.T) {
	leakCheck(t)
	const calls = 150
	const slowFor = 80 * time.Millisecond
	w := newStressWorld(t, 4, nil,
		[]rpc.ClientOption{rpc.WithRetryInterval(200 * time.Millisecond), rpc.WithMaxAttempts(5)},
		core.WithHedging(core.HedgeConfig{MinDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond}))
	primary, alternate := w.rts[0], w.rts[1]
	plainClient, hedgedClient := w.rts[2], w.rts[3]

	ref1, err := primary.Export(&tailSvc{slowEvery: 10, slowFor: slowFor}, "Tail")
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := alternate.Export(&tailSvc{slowEvery: 1 << 62}, "Tail")
	if err != nil {
		t.Fatal(err)
	}

	run := func(rt *core.Runtime, hedged bool, hist *obs.Histogram) {
		t.Helper()
		p, err := rt.Import(ref1)
		if err != nil {
			t.Fatal(err)
		}
		if hedged {
			rt.RegisterIdempotent("Tail", "get")
			p.(*core.Stub).SetAlternates([]codec.Ref{ref1, ref2})
		}
		for i := 0; i < calls; i++ {
			start := time.Now()
			if _, err := p.Invoke(context.Background(), "get"); err != nil {
				t.Fatalf("call %d (hedged=%v): %v", i, hedged, err)
			}
			hist.Observe(time.Since(start))
		}
	}
	reg := w.obs.Registry
	run(plainClient, false, reg.Histogram("e15.plain.latency"))
	run(hedgedClient, true, reg.Histogram("e15.hedged.latency"))

	plain := reg.Histogram("e15.plain.latency").Snapshot()
	hedged := reg.Histogram("e15.hedged.latency").Snapshot()
	scope := "core[" + hedgedClient.Addr().String() + "]."
	launches := reg.Counter(scope + "hedge.launches").Load()
	wins := reg.Counter(scope + "hedge.wins").Load()
	t.Logf("p99 plain %s vs hedged %s; %d hedges launched, %d won", plain.P99, hedged.P99, launches, wins)

	if launches == 0 || wins == 0 {
		t.Fatalf("hedging never engaged: %d launches, %d wins", launches, wins)
	}
	// Every 10th call stalls 80ms: the plain client's p99 must sit at the
	// stall, the hedged client's well under half of it.
	if plain.P99 < slowFor/2 {
		t.Fatalf("plain p99 %s does not show the tail; fixture broken", plain.P99)
	}
	if hedged.P99 >= plain.P99/2 {
		t.Errorf("hedged p99 %s is not under half the plain p99 %s", hedged.P99, plain.P99)
	}
}

// TestStressPriorityTrafficSurvivesOverload drives the server past
// capacity with normal traffic while a trickle of high-priority calls —
// the class replica sync and rebalance traffic ride — must never be
// shed.
func TestStressPriorityTrafficSurvivesOverload(t *testing.T) {
	leakCheck(t)
	const limit = 2
	w := newStressWorld(t, 2, &overload.Config{
		MinLimit: limit, MaxLimit: limit, InitialLimit: limit,
		QueueLimit: 4, QueueDeadline: 5 * time.Millisecond,
	}, []rpc.ClientOption{rpc.WithRetryInterval(100 * time.Millisecond)})
	srvKtx := w.rts[0].Kernel()
	obj := srvKtx.Register(kernel.HandlerFunc(func(ktx *kernel.Context, f *wire.Frame) {
		time.Sleep(2 * time.Millisecond)
		_ = ktx.Respond(f, wire.KindReply, f.Payload)
	}))
	dst := wire.ObjAddr{Addr: srvKtx.Addr(), Object: obj}
	cliKtx := w.rts[1].Kernel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4*limit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				_, _ = cliKtx.Call(ctx, dst.Addr, dst.Object, wire.KindRequest, 0, []byte("n"))
				cancel()
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	time.Sleep(100 * time.Millisecond) // saturate first
	high := wire.Envelope{Priority: wire.PriorityHigh}
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := w.rts[1].Client().CallEnvelope(ctx, dst, wire.KindRequest, high, []byte("sync"))
		cancel()
		if err != nil { // a shed arrives as a pushback RemoteError
			t.Fatalf("high-priority call %d failed under overload: %v", i, err)
		}
	}
	if w.adm.Shed() == 0 {
		t.Error("fixture never overloaded: no normal-priority sheds recorded")
	}
	if fmt.Sprint(w.adm.Status().Bypass) == "0" {
		t.Error("no high-priority bypass recorded")
	}
}
