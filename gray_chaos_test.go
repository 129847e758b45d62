package repro

// Gray-failure chaos tests: nodes that are alive but WRONG — slow,
// lossy, corrupting, or reachable in only one direction. Crash-stop
// chaos (chaos_test.go) asks "does the system survive death?"; this
// suite asks the harder question from the gray-failure literature:
// does it survive a node that keeps answering, badly? The invariants:
//
//   - a 10×-slow node is scored, graded degraded, and ejected — the
//     cluster's tail latency stays bounded, while the same workload
//     without health scoring inherits the slow node's latency;
//   - a one-way partition is disambiguated from death by indirect
//     probes (peers can still reach the node) and reported as degraded
//     WITH direction, while writes reroute with zero acknowledged
//     losses;
//   - corrupted bytes on the wire are caught by the frame CRC and
//     healed by retransmission — never silently accepted;
//   - a replica group's live-but-degraded primary is demoted through
//     the epoch-fenced promotion path on sustained health evidence.
//
// Every test is seeded through CHAOS_SEED like the rest of the chaos
// suite and runs under `make chaos` (names start with TestChaosGray).

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// grayCluster is n runtimes (nodes 1..n) on one simulated network, each
// carrying a health monitor that watches every peer — the proxyd shape,
// with active probing, passive call evidence, and indirect probes all
// live. monInterval <= 0 builds the cluster WITHOUT monitors (the
// "ejection off" control).
type grayCluster struct {
	net  *netsim.Network
	obs  *obs.Observer
	rts  []*core.Runtime
	mons []*health.Monitor
}

func newGrayCluster(t *testing.T, n int, monInterval time.Duration,
	netOpts []netsim.NetworkOption, cliOpts []rpc.ClientOption,
	monOpts []health.MonitorOption, rtOpts ...core.RuntimeOption) *grayCluster {
	t.Helper()
	c := &grayCluster{
		net: netsim.New(append([]netsim.NetworkOption{netsim.WithSeed(chaosSeed())}, netOpts...)...),
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
		if monInterval > 0 {
			mon := health.NewMonitor(ktx, append([]health.MonitorOption{
				health.WithInterval(monInterval),
				health.WithObserver(c.obs),
			}, monOpts...)...)
			t.Cleanup(func() { mon.Close() })
			c.mons = append(c.mons, mon)
			opts = append(opts, core.WithHealth(mon))
		}
		c.rts = append(c.rts, core.NewRuntime(ktx, opts...))
	}
	// Shut proxies down before their nodes close (cleanups run LIFO), so
	// proxy background loops stop on Close instead of outliving the test.
	t.Cleanup(func() {
		for _, rt := range c.rts {
			rt.CloseProxies()
		}
	})
	// Everyone watches everyone: probes prime the RTT population the
	// outlier model grades against, and give every monitor relay
	// candidates for indirect probing.
	for i, mon := range c.mons {
		for j := 1; j <= n; j++ {
			if j != i+1 {
				mon.Watch(wire.NodeID(j))
			}
		}
	}
	return c
}

// countedKV is a KV that counts the invocations that reach it.
type countedKV struct {
	*bench.KV
	reached atomic.Uint64
}

func (k *countedKV) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	k.reached.Add(1)
	return k.KV.Invoke(ctx, method, args)
}

// TestChaosGraySlowNodeEjection runs the same workload against a
// cluster whose primary KV node turns 10× slow, once with health
// scoring attached (the slow node is scored, and calls are steered to a
// healthy alternate before send) and once without (the control). It
// judges what ejection guarantees, by counts and medians — a tail of 80
// wall-clock samples is their maximum, and one call that reaches the
// slow node while its score dips would decide it: every degraded-phase
// call is either ejected or reaches the slow node, most are ejected, and
// the typical call costs less than one degraded round trip with scoring
// and at least one without.
func TestChaosGraySlowNodeEjection(t *testing.T) {
	leakCheck(t)
	const (
		base  = 500 * time.Microsecond // healthy per-hop latency
		extra = 10 * base              // degradation: +10× base per hop
		ops   = 80
	)

	// run reports the degraded phase: its median latency, the calls ejected
	// before send and the calls that reached the slow node.
	run := func(t *testing.T, withHealth bool) (med time.Duration, ejected, reachedSlow uint64) {
		t.Helper()
		interval := time.Duration(0)
		if withHealth {
			interval = 40 * time.Millisecond // probe timeout 20ms > degraded RTT
		}
		c := newGrayCluster(t, 4, interval,
			[]netsim.NetworkOption{netsim.WithDefaultLink(netsim.LinkConfig{Latency: base})},
			[]rpc.ClientOption{rpc.WithRetryInterval(50 * time.Millisecond), rpc.WithMaxAttempts(4)},
			[]health.MonitorOption{health.WithOutlierFactor(1.5), health.WithEWMAAlpha(0.4)})
		slow, alt, client := c.rts[0], c.rts[1], c.rts[2]

		slowKV := &countedKV{KV: bench.NewKV()}
		ref1, err := slow.Export(slowKV, "KV")
		if err != nil {
			t.Fatal(err)
		}
		ref2, err := alt.Export(bench.NewKV(), "KV")
		if err != nil {
			t.Fatal(err)
		}
		p, err := client.Import(ref1)
		if err != nil {
			t.Fatal(err)
		}
		stub := p.(*core.Stub)
		stub.SetAlternates([]codec.Ref{ref1, ref2})
		// put is deliberately NOT declared idempotent: pre-send ejection
		// happens before anything leaves the client, so it needs no replay
		// license — the point being that gray-failure steering protects
		// writes, not just reads.

		// measure runs one phase of ops writes and returns their median.
		measure := func(phase string) time.Duration {
			var timer bench.Timer
			for i := 0; i < ops; i++ {
				start := time.Now()
				if _, err := stub.Invoke(context.Background(), "put", fmt.Sprintf("%s%d", phase, i%8), int64(i)); err != nil {
					t.Fatalf("%s write %d: %v", phase, i, err)
				}
				timer.Record(time.Since(start))
			}
			return timer.Summary().P50
		}

		ejections := c.obs.Registry.Counter("core[" + client.Where() + "].invoke.ejections")
		measure("b")
		c.net.DegradeNode(1, netsim.LinkCond{ExtraLatency: extra})
		if withHealth {
			// Wait for the client's monitor to grade node 1: EWMA RTT must
			// cross the outlier threshold against the peer median.
			mon := c.mons[2]
			converged := false
			for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
				if mon.Score(1) >= 0.75 {
					converged = true
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if !converged {
				t.Fatalf("monitor never scored the slow node: status %+v", mon.Status(1))
			}
		}
		ej0, reached0 := ejections.Load(), slowKV.reached.Load()
		med = measure("d")
		return med, ejections.Load() - ej0, slowKV.reached.Load() - reached0
	}

	medOn, ejected, reachedOn := run(t, true)
	medOff, ejectedOff, reachedOff := run(t, false)
	t.Logf("degraded phase, %d calls: scoring on: median %v, %d ejected, %d reached the slow node; off: median %v, %d ejected, %d reached it",
		ops, medOn, ejected, reachedOn, medOff, ejectedOff, reachedOff)

	// Every call is steered before send or goes to its binding; nothing is
	// sent twice (a degraded round trip is well inside the retry interval,
	// and a retransmission would be answered from the dedup table anyway).
	if ejected+reachedOn != ops {
		t.Errorf("scoring on: %d ejected + %d reached the slow node != %d calls", ejected, reachedOn, ops)
	}
	if ejected < ops/2 {
		t.Errorf("scoring on: %d of %d calls ejected — the score steered less than half the traffic", ejected, ops)
	}
	if ejectedOff != 0 || reachedOff != ops {
		t.Errorf("scoring off: %d ejected, %d reached the slow node; want 0 and %d", ejectedOff, reachedOff, ops)
	}
	// An ejected call never pays the slow node's round trip (2 hops ×
	// extra); a call to the slow node always does.
	if medOn >= 2*extra {
		t.Errorf("scoring on: degraded median %v — the typical call still paid the slow node's %v round trip", medOn, 2*extra)
	}
	if medOff < 2*extra {
		t.Errorf("scoring off: degraded median %v — expected the slow node's >= %v round trip; control is not degrading", medOff, 2*extra)
	}
}

// TestChaosGrayOneWayPartition cuts the client→server direction only,
// on a seeded schedule, and asserts the two halves of the tentpole:
// the client's monitor reports the server DEGRADED WITH DIRECTION
// (indirect probes through peers prove it alive, inbound frames prove
// our outbound leg is the broken one) within a bounded window instead
// of declaring it dead; and the write workload reroutes to an alternate
// with zero acknowledged writes lost.
func TestChaosGrayOneWayPartition(t *testing.T) {
	leakCheck(t)
	c := newGrayCluster(t, 4, 20*time.Millisecond,
		nil,
		[]rpc.ClientOption{rpc.WithRetryInterval(5 * time.Millisecond), rpc.WithMaxAttempts(4)},
		nil,
		core.WithBreakerConfig(health.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond}))
	serverA, serverB, client := c.rts[0], c.rts[1], c.rts[2] // node 4 is a relay peer

	ref1, err := serverA.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := serverB.Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	client.RegisterIdempotent("KV", "put", "get")
	p, err := client.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	stub := p.(*core.Stub)
	stub.SetAlternates([]codec.Ref{ref1, ref2})

	const cutFor = 600 * time.Millisecond
	sched := &netsim.FaultSchedule{Events: []netsim.FaultEvent{
		{At: 50 * time.Millisecond, Kind: netsim.FaultPartitionOneWay, A: 3, B: 1},
		{At: 50*time.Millisecond + cutFor, Kind: netsim.FaultHeal, A: 3, B: 1},
	}}
	t.Logf("schedule (seed %d):\n%s", chaosSeed(), sched)
	run := sched.Run(c.net)

	// Writes ride through the cut: values are monotonic per key, and an
	// acknowledged write must survive on whichever server acked it.
	acked := make(map[string]int64)
	var seq int64
	deadline := time.Now().Add(50*time.Millisecond + cutFor + 100*time.Millisecond)
	for time.Now().Before(deadline) {
		key := fmt.Sprintf("w%d", seq%5)
		if _, err := stub.Invoke(context.Background(), "put", key, seq); err == nil {
			acked[key] = seq
		}
		seq++
	}
	run.Wait()

	// Direction verdict: the client's monitor must have graded node 1
	// degraded-outbound during the cut (we poll the terminal state too,
	// since the schedule has healed by now — the transition counter and
	// status history are not retained). Re-cut briefly to observe it.
	mon := c.mons[2]
	c.net.PartitionOneWay(3, 1)
	verdict := health.NodeStatus{}
	sawDirected := false
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); {
		verdict = mon.Status(1)
		if verdict.State == health.StateDegraded && verdict.Direction == health.DirectionOutbound {
			sawDirected = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDirected {
		t.Errorf("one-way partition never graded degraded/outbound; last status %+v", verdict)
	}
	c.net.Heal(3, 1)

	// Recovery: with the path restored the verdict must return to alive.
	recovered := false
	for end := time.Now().Add(3 * time.Second); time.Now().Before(end); {
		if mon.State(1) == health.StateAlive {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Errorf("node 1 never graded alive after heal: %+v", mon.Status(1))
	}

	// Zero lost acknowledged writes: the last acked value of every key
	// must be present on one of the two servers (whichever acked it).
	pa, err := serverA.Import(ref1) // bypass proxies: local dispatch
	if err != nil {
		t.Fatal(err)
	}
	pb, err := serverB.Import(ref2)
	if err != nil {
		t.Fatal(err)
	}
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged — workload never ran")
	}
	for key, want := range acked {
		found := false
		for _, srv := range []core.Proxy{pa, pb} {
			res, err := srv.Invoke(context.Background(), "get", key)
			if err == nil && len(res) > 0 {
				if got, ok := res[0].(int64); ok && got == want {
					found = true
					break
				}
			}
		}
		if !found {
			t.Errorf("acknowledged write %q=%d not found on any server", key, want)
		}
	}
	t.Logf("%d attempts, %d keys acked, %d failovers, final verdict %+v",
		seq, len(acked), stub.Failovers(), verdict)
}

// TestChaosGrayCorruptionHealed injects byte corruption on the only
// link and asserts the end-to-end story: every corrupted frame is
// caught by the wire CRC (netsim decodes each flipped frame with the
// real codec — a silent acceptance would deliver it) and dropped, rpc
// retransmission heals the loss, and the workload completes with every
// acknowledged write intact.
func TestChaosGrayCorruptionHealed(t *testing.T) {
	leakCheck(t)
	c := newGrayCluster(t, 2, 0,
		nil,
		[]rpc.ClientOption{rpc.WithRetryInterval(3 * time.Millisecond), rpc.WithMaxAttempts(100)},
		nil,
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

	c.net.Degrade(1, 2, netsim.LinkCond{CorruptRate: 0.05})
	const writes = 150
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("k%d", i%10)
		if _, err := p.Invoke(context.Background(), "put", key, int64(i)); err != nil {
			t.Fatalf("write %d failed despite deep retry budget: %v", i, err)
		}
	}
	c.net.Restore(1, 2)

	for i := writes - 10; i < writes; i++ {
		key := fmt.Sprintf("k%d", i%10)
		res, err := p.Invoke(context.Background(), "get", key)
		if err != nil {
			t.Fatalf("read-back of %q: %v", key, err)
		}
		if got := res[0].(int64); got != int64(i) {
			t.Errorf("key %q = %d, want %d", key, got, i)
		}
	}

	stats := c.net.Snapshot()
	if stats.Corrupted == 0 {
		t.Error("no frames were corrupted — the fault never bit (rate too low for this seed?)")
	}
	t.Logf("net stats: %+v", stats)
}

// TestChaosGrayDegradedPrimaryDemotion turns a replica group's primary
// node 10× slow and asserts the repair loop escalates sustained health
// evidence to a demotion: the successor member promotes itself under
// epoch+1 (fencing the slow primary exactly like a crash promotion
// would), and writes keep flowing through the group afterwards.
func TestChaosGrayDegradedPrimaryDemotion(t *testing.T) {
	leakCheck(t)
	const base = 500 * time.Microsecond
	c := newGrayCluster(t, 3, 40*time.Millisecond,
		[]netsim.NetworkOption{netsim.WithDefaultLink(netsim.LinkConfig{Latency: base})},
		[]rpc.ClientOption{rpc.WithRetryInterval(20 * time.Millisecond), rpc.WithMaxAttempts(6)},
		[]health.MonitorOption{health.WithOutlierFactor(1.5), health.WithEWMAAlpha(0.4)})
	primaryRT, memberRT, clientRT := c.rts[0], c.rts[1], c.rts[2]

	factory := replica.NewFactory(bench.KVReads(),
		func() replica.StateMachine { return bench.NewKV() },
		replica.WithName("kv"),
		replica.WithSyncInterval(25*time.Millisecond))
	memberRT.RegisterProxyType("ReplicatedKV", factory)
	clientRT.RegisterProxyType("ReplicatedKV", factory)

	ref, err := primaryRT.ExportVia(factory, bench.NewKV(), "ReplicatedKV")
	if err != nil {
		t.Fatal(err)
	}
	// Join order fixes the successor: the member on node 2 joins first
	// and heads the primary's view.
	mp, err := memberRT.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	member := mp.(*replica.Proxy)
	cp, err := clientRT.Import(ref)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := cp.Invoke(context.Background(), "put", "seed", int64(1)); err != nil {
		t.Fatal(err)
	}
	epoch0 := member.Epoch()

	// The primary turns gray: alive, syncing, just 10× slow on every
	// link. Sustained degraded verdicts at the successor must escalate
	// to an election instead of waiting for a death that never comes.
	c.net.DegradeNode(1, netsim.LinkCond{ExtraLatency: 10 * base})

	promoted := false
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
		if member.IsPrimary() && member.Epoch() > epoch0 {
			promoted = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !promoted {
		t.Fatalf("successor never promoted: primary=%v epoch=%d (was %d), monitor says %+v",
			member.IsPrimary(), member.Epoch(), epoch0, c.mons[1].Status(1))
	}

	// The group still serves writes under the new epoch (the member's
	// own proxy reaches its co-located primary directly).
	if _, err := member.Invoke(context.Background(), "put", "after", int64(2)); err != nil {
		t.Fatalf("write after demotion: %v", err)
	}
	res, err := member.Invoke(context.Background(), "get", "after")
	if err != nil || len(res) == 0 || res[0].(int64) != 2 {
		t.Fatalf("read after demotion: res=%v err=%v", res, err)
	}
	t.Logf("demoted: epoch %d -> %d, successor on node 2 is primary", epoch0, member.Epoch())
}
