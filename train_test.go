package repro

// End-to-end tests for frame trains: transparent per-destination
// coalescing under the full stack (runtime, rpc, kernel, netsim), the
// legacy-peer fallback, and the batching proxy's flusher lifecycle.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// stageAlways forces the coalescer's load detector to latch on the first
// send: tests that assert trains actually form must not depend on the
// adaptive detector's timing, which -race instrumentation distorts.
func stageAlways() wire.CoalescerConfig {
	return wire.CoalescerConfig{BurstGap: time.Hour, EnterBurst: 1}
}

// TestTrainsCrossContextFanIn drives 8 concurrent callers through one
// coalescing endpoint at a same-node, cross-context KV and checks the two
// things the trains must not change and the one thing they must: every
// increment lands exactly once, every reply reaches its caller, and the
// traffic actually rode in multi-member trains.
func TestTrainsCrossContextFanIn(t *testing.T) {
	leakCheck(t)
	net := netsim.New()
	t.Cleanup(net.Close)
	ep, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ce := netsim.Coalesce(ep, stageAlways())
	node := kernelNodeForTest(t, ce)
	srvCtx, err := node.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewRuntime(srvCtx)
	kv := bench.NewKV()
	ref, err := srv.Export(kv, "KV")
	if err != nil {
		t.Fatal(err)
	}
	cliCtx, err := node.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	client := core.NewRuntime(cliCtx)

	const workers, opsPer = 8, 50
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		p, err := client.Import(ref)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p core.Proxy) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := p.Invoke(ctx, "incr", "hits"); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := kv.Get("hits"); got != workers*opsPer {
		t.Errorf("hits = %d, want %d (lost or duplicated members)", got, workers*opsPer)
	}
	st := ce.Coalescer().Stats()
	if st.TrainsSent == 0 {
		t.Errorf("no trains formed under fan-in %d: stats %+v", workers, st)
	}
	if st.SendErrors != 0 {
		t.Errorf("coalescer recorded %d send errors", st.SendErrors)
	}
}

// TestTrainsRemoteFanIn moves the callers to another node so both halves
// of the exchange cross the simulated network: requests coalesce on the
// client node, replies coalesce on the server node, and the capability to
// do either is learned from frame flags, not configured.
func TestTrainsRemoteFanIn(t *testing.T) {
	leakCheck(t)
	net := netsim.New()
	t.Cleanup(net.Close)
	epS, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ceS := netsim.Coalesce(epS, stageAlways())
	nodeS := kernelNodeForTest(t, ceS)
	epC, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	ceC := netsim.Coalesce(epC, stageAlways())
	nodeC := kernelNodeForTest(t, ceC)

	srvCtx, err := nodeS.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewRuntime(srvCtx)
	kv := bench.NewKV()
	ref, err := srv.Export(kv, "KV")
	if err != nil {
		t.Fatal(err)
	}
	cliCtx, err := nodeC.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	client := core.NewRuntime(cliCtx)

	const workers, opsPer = 8, 50
	ctx := context.Background()
	proxies := make([]core.Proxy, workers)
	for i := range proxies {
		if proxies[i], err = client.Import(ref); err != nil {
			t.Fatal(err)
		}
	}
	// One call per proxy first: the initial request/reply exchange teaches
	// each side the other speaks trains, so the measured burst below
	// coalesces in both directions.
	for _, p := range proxies {
		if _, err := p.Invoke(ctx, "noop"); err != nil {
			t.Fatal(err)
		}
	}
	if !ceC.Coalescer().Capable(1) || !ceS.Coalescer().Capable(2) {
		t.Fatalf("capability not learned: client-knows-server=%v server-knows-client=%v",
			ceC.Coalescer().Capable(1), ceS.Coalescer().Capable(2))
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w, p := range proxies {
		wg.Add(1)
		go func(w int, p core.Proxy) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := p.Invoke(ctx, "incr", fmt.Sprintf("w%d", w)); err != nil {
					errs <- err
					return
				}
			}
		}(w, p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for w := 0; w < workers; w++ {
		if got := kv.Get(fmt.Sprintf("w%d", w)); got != opsPer {
			t.Errorf("worker %d count = %d, want %d", w, got, opsPer)
		}
	}
	if st := ceC.Coalescer().Stats(); st.TrainsSent == 0 {
		t.Errorf("client sent no request trains: stats %+v", st)
	}
	if st := ceS.Coalescer().Stats(); st.TrainsSent == 0 {
		t.Errorf("server sent no reply trains: stats %+v", st)
	}
}

// TestTrainsOverTCPFanIn is TestTrainsRemoteFanIn on the transport the
// daemon really runs on: two loopback TCP endpoints, where a train is one
// write to a peer process' socket and a sender's cut, the flusher's sweep
// and the socket's own write lock all meet. Counts must be exact, trains
// must form in both directions, and nothing may be left running.
func TestTrainsOverTCPFanIn(t *testing.T) {
	leakCheck(t)
	epS, err := netsim.ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	ceS := netsim.Coalesce(epS, stageAlways())
	nodeS := kernelNodeForTest(t, ceS)
	epC, err := netsim.ListenTCP(2, "127.0.0.1:0", map[wire.NodeID]string{1: epS.ListenAddr()})
	if err != nil {
		t.Fatal(err)
	}
	ceC := netsim.Coalesce(epC, stageAlways())
	nodeC := kernelNodeForTest(t, ceC)

	srvCtx, err := nodeS.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	kv := bench.NewKV()
	ref, err := core.NewRuntime(srvCtx).Export(kv, "KV")
	if err != nil {
		t.Fatal(err)
	}
	cliCtx, err := nodeC.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	client := core.NewRuntime(cliCtx)

	const workers, opsPer = 8, 500
	ctx := context.Background()
	proxies := make([]core.Proxy, workers)
	for i := range proxies {
		if proxies[i], err = client.Import(ref); err != nil {
			t.Fatal(err)
		}
	}
	// The first exchange teaches each side the other speaks trains.
	if _, err := proxies[0].Invoke(ctx, "noop"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w, p := range proxies {
		wg.Add(1)
		go func(w int, p core.Proxy) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 1; i <= opsPer; i++ {
				res, err := p.Invoke(ctx, "incr", key)
				if err != nil {
					errs <- err
					return
				}
				if got := res[0].(int64); got != int64(i) {
					errs <- fmt.Errorf("worker %d incr %d returned %d", w, i, got)
					return
				}
			}
		}(w, p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for w := 0; w < workers; w++ {
		if got := kv.Get(fmt.Sprintf("w%d", w)); got != opsPer {
			t.Errorf("worker %d count = %d, want %d", w, got, opsPer)
		}
	}
	for side, ce := range map[string]*netsim.CoalescedEndpoint{"client": ceC, "server": ceS} {
		if st := ce.Coalescer().Stats(); st.TrainsSent == 0 || st.SendErrors != 0 {
			t.Errorf("%s coalescer: stats %+v, want trains sent and no send errors", side, st)
		}
	}
}

// TestTrainsMixedClusterFallback pairs a coalescing node with a legacy
// node that has never heard of trains. Calls flow both ways; the
// coalescing side must fall back to frame-at-a-time toward the peer it
// never saw FlagTrains from, and nothing the legacy node receives may be
// a container frame (the kernel would reply, but a real legacy stack
// would drop it — the capability gate is what keeps the wire honest).
func TestTrainsMixedClusterFallback(t *testing.T) {
	leakCheck(t)
	net := netsim.New()
	t.Cleanup(net.Close)
	epNew, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ceNew := netsim.Coalesce(epNew, stageAlways())
	nodeNew := kernelNodeForTest(t, ceNew)
	epOld, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	nodeOld := kernelNodeForTest(t, epOld) // plain endpoint: a pre-train peer

	ctxNew, err := nodeNew.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	rtNew := core.NewRuntime(ctxNew)
	ctxOld, err := nodeOld.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	rtOld := core.NewRuntime(ctxOld)

	kvOld := bench.NewKV()
	refOld, err := rtOld.Export(kvOld, "KV")
	if err != nil {
		t.Fatal(err)
	}
	kvNew := bench.NewKV()
	refNew, err := rtNew.Export(kvNew, "KV")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const workers, opsPer = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		pToOld, err := rtNew.Import(refOld)
		if err != nil {
			t.Fatal(err)
		}
		pToNew, err := rtOld.Import(refNew)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(p core.Proxy) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := p.Invoke(ctx, "incr", "from-new"); err != nil {
					errs <- err
					return
				}
			}
		}(pToOld)
		go func(p core.Proxy) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := p.Invoke(ctx, "incr", "from-old"); err != nil {
					errs <- err
					return
				}
			}
		}(pToNew)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := kvOld.Get("from-new"); got != workers*opsPer {
		t.Errorf("legacy node saw %d increments, want %d", got, workers*opsPer)
	}
	if got := kvNew.Get("from-old"); got != workers*opsPer {
		t.Errorf("coalescing node saw %d increments, want %d", got, workers*opsPer)
	}
	st := ceNew.Coalescer().Stats()
	if ceNew.Coalescer().Capable(2) {
		t.Error("legacy peer marked train-capable")
	}
	if st.TrainsSent != 0 {
		t.Errorf("sent %d trains to a cluster whose only peer is legacy", st.TrainsSent)
	}
	if st.DirectSends == 0 {
		t.Error("no direct sends recorded on the fallback path")
	}
}

// TestBatchProxyCloseStopsFlusher pins the BatchProxy lifecycle fix: an
// interval flush stuck behind a wedged server must not block Close or
// outlive it. leakCheck (via the root helper) is the real assertion — the
// timer-armed flusher goroutine has to be gone after Close returns.
func TestBatchProxyCloseStopsFlusher(t *testing.T) {
	leakCheck(t)
	c, err := bench.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before leakCheck's cleanup
	wedged := core.ServiceFunc(func(ctx context.Context, method string, args []any) ([]any, error) {
		<-release // hold every batch flush until teardown
		return nil, nil
	})

	factory := core.NewBatchFactory([]string{"append"},
		core.WithBatchSize(100), core.WithBatchInterval(time.Millisecond))
	c.RT(1).RegisterProxyType("Log", factory)
	ref, err := c.RT(0).Export(wedged, "Log")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.RT(1).Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	bp := p.(*core.BatchProxy)

	if _, err := bp.Invoke(context.Background(), "append", "x"); err != nil {
		t.Fatal(err)
	}
	// Let the interval timer fire and the background flush wedge on the
	// blocked server.
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	_ = bp.Close() // the wedged flush surfaces as a cancelled call; fine
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close took %v; the cancelled background flush should return promptly", d)
	}
	if _, err := bp.Invoke(context.Background(), "append", "x"); err != core.ErrProxyClosed {
		t.Errorf("Invoke after Close = %v, want ErrProxyClosed", err)
	}
}
