package repro

// Chaos tests: seeded fault schedules run against live deployments while a
// workload drives them, asserting end-to-end fault-tolerance invariants —
// idempotent invocations survive crashes via stub failover, acknowledged
// writes are never lost, circuit breakers close again after the fault
// heals, and traces show the failover hop. The schedule for a given seed
// is byte-reproducible, so a failing run can be replayed exactly with
// CHAOS_SEED=<n> go test -run TestChaos .
//
// `make chaos` runs this suite under -race for several seeds.

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// chaosSeed returns the schedule seed: CHAOS_SEED from the environment, or
// 1. Every randomized choice in these tests flows from this one value.
func chaosSeed() int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// chaosCluster is n runtimes (nodes 1..n) on one simulated network,
// sharing a single observer so metrics and traces from every node land in
// one place — the same shape proxyd deployments have.
type chaosCluster struct {
	net *netsim.Network
	obs *obs.Observer
	rts []*core.Runtime
}

func newChaosCluster(t *testing.T, n int, cliOpts []rpc.ClientOption, rtOpts ...core.RuntimeOption) *chaosCluster {
	t.Helper()
	c := &chaosCluster{
		net: netsim.New(netsim.WithSeed(chaosSeed())),
		obs: obs.NewObserver(),
	}
	t.Cleanup(c.net.Close)
	for i := 1; i <= n; i++ {
		ep, err := c.net.Attach(wire.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		node := kernelNodeForTest(t, ep)
		ktx, err := node.NewContext()
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]core.RuntimeOption{
			core.WithObserver(c.obs),
			core.WithClient(rpc.NewClient(ktx, append(cliOpts, rpc.WithObserver(c.obs))...)),
		}, rtOpts...)
		c.rts = append(c.rts, core.NewRuntime(ktx, opts...))
	}
	// Shut proxies down before their nodes close (cleanups run LIFO):
	// replica repair loops and other proxy background work stop on Close
	// instead of outliving the test — leakCheck holds the suite to it.
	t.Cleanup(func() {
		for _, rt := range c.rts {
			rt.CloseProxies()
		}
	})
	return c
}

// TestChaosFailoverUnderCrash crashes and restarts the serving node on a
// seeded schedule while a client runs a fixed number of idempotent
// invocations through a failover-aware stub. The schedule's offsets are
// read as positions in the workload, not wall time, so a seed crashes the
// primary at the same invocations however fast the machine runs them. The
// invariant: at least 99% of invocations complete with no client-visible
// error (in practice 100% — the alternate node never fails).
func TestChaosFailoverUnderCrash(t *testing.T) {
	leakCheck(t)
	c := newChaosCluster(t, 3,
		[]rpc.ClientOption{rpc.WithRetryInterval(2 * time.Millisecond), rpc.WithMaxAttempts(3)},
		core.WithBreakerConfig(health.BreakerConfig{Threshold: 1, Cooldown: 25 * time.Millisecond}))
	primary, backup, client := c.rts[0], c.rts[1], c.rts[2]

	ref1, err := primary.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := backup.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	client.RegisterIdempotent("KV", "put", "get", "sum")

	p, err := client.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	stub := p.(*core.Stub)
	stub.SetAlternates([]codec.Ref{ref1, ref2})

	const (
		ops    = 2000
		window = 400 * time.Millisecond // the schedule's span, mapped onto ops
	)
	sched := netsim.GenSchedule(chaosSeed(), netsim.ChaosConfig{
		Nodes:    []wire.NodeID{1}, // only the primary crashes; the backup stays up
		Duration: window,
		Crashes:  3,
		MinDown:  30 * time.Millisecond,
		MaxDown:  80 * time.Millisecond,
	})
	t.Logf("schedule (seed %d):\n%s", chaosSeed(), sched)
	evs := sched.Events
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	var failed, crashedOps int
	for i := 0; i < ops; i++ {
		for len(evs) > 0 && int(evs[0].At*ops/window) <= i {
			evs[0].Apply(c.net)
			evs = evs[1:]
		}
		if c.net.Crashed(1) {
			crashedOps++
		}
		key := fmt.Sprintf("k%d", i%8)
		if _, err := stub.Invoke(context.Background(), "put", key, int64(i)); err != nil {
			failed++
			t.Logf("invocation %d failed: %v", i, err)
		}
	}
	for _, ev := range evs { // restarts scheduled past the end
		ev.Apply(c.net)
	}

	if crashedOps == 0 {
		t.Fatal("no invocation ran while the primary was down — schedule never bit")
	}
	if failed > ops/100 {
		t.Errorf("%d of %d invocations failed, want at most %d (99%% success)", failed, ops, ops/100)
	}
	if stub.Failovers() == 0 {
		t.Error("workload rode out crashes without a single failover")
	}
	t.Logf("%d invocations (%d with the primary down), %d failed, %d failovers", ops, crashedOps, failed, stub.Failovers())
}

// TestChaosTracedFailover pins the deterministic half of the invariant: a
// traced invocation that fails over records a "failover:" span naming the
// binding it redirected to.
func TestChaosTracedFailover(t *testing.T) {
	leakCheck(t)
	c := newChaosCluster(t, 3,
		[]rpc.ClientOption{rpc.WithRetryInterval(2 * time.Millisecond), rpc.WithMaxAttempts(2)},
		core.WithBreakerConfig(health.BreakerConfig{Threshold: 1, Cooldown: time.Minute}))
	primary, backup, client := c.rts[0], c.rts[1], c.rts[2]

	ref1, err := primary.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := backup.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	client.RegisterIdempotent("KV", "get")
	p, err := client.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	stub := p.(*core.Stub)
	stub.SetAlternates([]codec.Ref{ref1, ref2})

	c.net.Crash(1)

	ctx, finish := client.Tracer().StartSpan(context.Background(), "chaos:get", client.Where())
	sc, _ := obs.SpanFromContext(ctx)
	_, err = stub.Invoke(ctx, "get", "k")
	finish(err)
	if err != nil {
		t.Fatalf("failover invoke: %v", err)
	}

	var sawFailover bool
	for _, sp := range client.Tracer().Spans(sc.Trace) {
		if strings.HasPrefix(sp.Name, "failover:") {
			sawFailover = true
			if !strings.Contains(sp.Name, ref2.Target.String()) {
				t.Errorf("failover span %q does not name the alternate %s", sp.Name, ref2.Target)
			}
		}
	}
	if !sawFailover {
		t.Errorf("trace %s has no failover: span", sc.Trace)
	}
}

// TestChaosNoLostAcknowledgedWrites crashes the only serving node on a
// seeded schedule while a client writes through with a deep retransmit
// budget (no failover target — the call must ride out the downtime). The
// invariant: every acknowledged write is visible afterwards.
func TestChaosNoLostAcknowledgedWrites(t *testing.T) {
	leakCheck(t)
	// A huge breaker threshold keeps the circuit closed so calls ride
	// retransmits through the crash windows instead of fast-failing.
	c := newChaosCluster(t, 2,
		[]rpc.ClientOption{rpc.WithRetryInterval(3 * time.Millisecond), rpc.WithMaxAttempts(600)},
		core.WithBreakerConfig(health.BreakerConfig{Threshold: 1 << 30, Cooldown: time.Second}))
	server, client := c.rts[0], c.rts[1]

	ref, err := server.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Import(ref)
	if err != nil {
		t.Fatal(err)
	}

	const runFor = 300 * time.Millisecond
	sched := netsim.GenSchedule(chaosSeed(), netsim.ChaosConfig{
		Nodes:    []wire.NodeID{1},
		Duration: runFor,
		Crashes:  3,
		MinDown:  20 * time.Millisecond,
		MaxDown:  50 * time.Millisecond,
	})
	t.Logf("schedule (seed %d):\n%s", chaosSeed(), sched)
	run := sched.Run(c.net)

	acked := make(map[string]int64)
	var seq int64
	deadline := time.Now().Add(runFor)
	for time.Now().Before(deadline) {
		key := fmt.Sprintf("w%d", seq%5)
		if _, err := p.Invoke(context.Background(), "put", key, seq); err != nil {
			t.Fatalf("write %d failed despite deep retry budget: %v", seq, err)
		}
		acked[key] = seq // the server acknowledged this value
		seq++
	}
	run.Wait()

	// Heal is complete (schedule pairs every crash with a restart): every
	// acknowledged write must read back exactly.
	for key, want := range acked {
		res, err := p.Invoke(context.Background(), "get", key)
		if err != nil {
			t.Fatalf("read-back of %q: %v", key, err)
		}
		if got := res[0].(int64); got != want {
			t.Errorf("key %q = %d, want last acknowledged value %d", key, got, want)
		}
	}
	t.Logf("%d writes acknowledged across %d keys, all read back", seq, len(acked))
}

// TestChaosBreakerRecovery runs a crash/restart schedule against a node
// with no failover target and asserts the client-side breaker opens while
// the node is down, fast-fails callers, and closes again after the heal.
func TestChaosBreakerRecovery(t *testing.T) {
	leakCheck(t)
	c := newChaosCluster(t, 2,
		[]rpc.ClientOption{rpc.WithRetryInterval(2 * time.Millisecond), rpc.WithMaxAttempts(3)},
		core.WithBreakerConfig(health.BreakerConfig{Threshold: 1, Cooldown: 20 * time.Millisecond}))
	server, client := c.rts[0], c.rts[1]

	ref, err := server.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "get", "k"); err != nil {
		t.Fatal(err)
	}

	sched := &netsim.FaultSchedule{Events: []netsim.FaultEvent{
		{At: 0, Kind: netsim.FaultCrash, A: 1},
		{At: 60 * time.Millisecond, Kind: netsim.FaultRestart, A: 1},
	}}
	run := sched.Run(c.net)
	for end := time.Now().Add(time.Second); !c.net.Crashed(1); {
		if time.Now().After(end) {
			t.Fatal("schedule never crashed node 1")
		}
		time.Sleep(time.Millisecond)
	}

	// While down: the first call burns its retry budget, trips the
	// breaker; the next is rejected locally before any retransmit.
	if _, err := p.Invoke(context.Background(), "get", "k"); err == nil {
		t.Fatal("call to crashed node succeeded")
	}
	br := client.Breakers().For(ref.Target.Addr.Node)
	if br.State() != health.BreakerOpen {
		t.Fatalf("breaker after failed call = %v, want open", br.State())
	}
	start := time.Now()
	_, err = p.Invoke(context.Background(), "get", "k")
	if err == nil || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("open breaker: err = %v, want circuit open", err)
	}
	if d := time.Since(start); d > 15*time.Millisecond {
		t.Errorf("open-breaker rejection took %v, want local fast-fail", d)
	}

	run.Wait() // node is restarted now

	recovered := false
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
		if _, err := p.Invoke(context.Background(), "get", "k"); err == nil {
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("breaker never let traffic through after the heal")
	}
	if br.State() != health.BreakerClosed {
		t.Errorf("breaker after heal = %v, want closed", br.State())
	}
}

// TestChaosScheduleReproducible asserts the property that makes every test
// above replayable: a schedule is a pure function of (seed, config), byte
// for byte.
func TestChaosScheduleReproducible(t *testing.T) {
	leakCheck(t)
	cfg := netsim.ChaosConfig{
		Nodes:      []wire.NodeID{1, 2, 3, 4},
		Duration:   2 * time.Second,
		Crashes:    5,
		MinDown:    10 * time.Millisecond,
		MaxDown:    200 * time.Millisecond,
		Partitions: 3,
		MinCut:     20 * time.Millisecond,
		MaxCut:     100 * time.Millisecond,
		Flaps:      2,
		FlapLink:   netsim.LinkConfig{Latency: 10 * time.Millisecond, LossRate: 0.3},
		MinFlap:    10 * time.Millisecond,
		MaxFlap:    50 * time.Millisecond,
	}
	seed := chaosSeed()
	a := netsim.GenSchedule(seed, cfg).String()
	if a == "" {
		t.Fatal("empty schedule")
	}
	for i := 0; i < 3; i++ {
		if b := netsim.GenSchedule(seed, cfg).String(); b != a {
			t.Fatalf("run %d: same seed produced a different schedule:\n%s\nvs\n%s", i, a, b)
		}
	}
	if b := netsim.GenSchedule(seed+1, cfg).String(); b == a {
		t.Error("adjacent seeds produced identical schedules")
	}
}
