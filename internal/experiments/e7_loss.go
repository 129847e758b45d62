package experiments

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// E7AtMostOnce sweeps message loss and checks the reliability machinery:
// calls keep succeeding (retransmission), each executes exactly once
// (duplicate suppression), and the ablation row shows what a server
// without the kernel's dedup lookup would run: every request transmission
// that reaches its node, counted by the node's trace hook as it arrives.
// Expected shape: latency and retransmissions climb with loss; the
// "executed" column equals the op count in every dedup row and exceeds it
// in the ablation.
func E7AtMostOnce(w io.Writer, cfg Config) error {
	header(w, "E7", "at-most-once under loss")
	losses := []float64{0, 0.05, 0.10, 0.20}
	tab := bench.Table{Headers: []string{"loss%", "dedup", "mean/op", "retransmits", "executed", "want"}}

	ops := cfg.Ops / 4 // lossy runs are slow; keep the suite snappy
	if ops < 50 {
		ops = 50
	}
	for _, loss := range losses {
		for _, dedup := range []bool{true, false} {
			mean, retr, executed, err := e7Run(cfg, loss, dedup, ops)
			if err != nil {
				return fmt.Errorf("loss=%v dedup=%v: %w", loss, dedup, err)
			}
			label := "on"
			if !dedup {
				label = "off (arrivals)"
			}
			tab.Add(fmt.Sprintf("%.0f", loss*100), label, mean, retr, executed, ops)
		}
	}
	tab.Print(w)
	fmt.Fprintln(w, "(executed > want in ablation rows = duplicate executions let through)")
	return nil
}

func e7Run(cfg Config, loss float64, dedup bool, ops int) (time.Duration, uint64, int64, error) {
	net := netsim.New(
		netsim.WithDefaultLink(netsim.LinkConfig{Latency: cfg.Latency, LossRate: loss}),
		netsim.WithSeed(cfg.Seed),
	)
	defer net.Close()

	// The ablation counts request transmissions reaching the server node:
	// the client's calls are the only requests it receives.
	var executed atomic.Int64
	arrivals := kernel.WithTrace(func(dir kernel.TraceDirection, f *wire.Frame) {
		if !dedup && dir == kernel.TraceRecv && f.Kind == wire.KindRequest && f.Flags&wire.FlagResponse == 0 {
			executed.Add(1)
		}
	})
	serverRT, clientRT, cleanup, err := e7Runtimes(net, arrivals)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cleanup()

	svc := core.ServiceFunc(func(ctx context.Context, method string, args []any) ([]any, error) {
		if dedup {
			executed.Add(1)
		}
		return nil, nil
	})

	exported, err := serverRT.Export(svc, "E7")
	if err != nil {
		return 0, 0, 0, err
	}
	client := rpc.NewClient(clientRT.Kernel(),
		rpc.WithRetryInterval(5*time.Millisecond), rpc.WithMaxAttempts(200))
	ctx := context.Background()
	var timer bench.Timer
	for i := 0; i < ops; i++ {
		start := time.Now()
		_, err := client.Call(ctx, exported.Target, wire.KindRequest, e7Request())
		timer.Record(time.Since(start))
		if err != nil {
			return 0, 0, 0, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return timer.Summary().Mean, client.Stats().Retransmits, executed.Load(), nil
}

// e7Request is the standard-path invocation payload for the no-op method.
func e7Request() []byte {
	buf, err := core.EncodeRequest(0, "x", nil)
	if err != nil {
		panic("unreachable: static request encode failed")
	}
	return buf
}

// e7Runtimes builds the server runtime on node 1, its node carrying opts,
// and the client runtime on node 2.
func e7Runtimes(net *netsim.Network, opts ...kernel.NodeOption) (server, client *core.Runtime, cleanup func(), err error) {
	mk := func(id wire.NodeID, opts ...kernel.NodeOption) (*core.Runtime, func(), error) {
		ep, err := net.Attach(id)
		if err != nil {
			return nil, nil, err
		}
		node := kernel.NewNode(ep, opts...)
		ktx, err := node.NewContext()
		if err != nil {
			node.Close()
			return nil, nil, err
		}
		return core.NewRuntime(ktx), func() { node.Close() }, nil
	}
	server, c1, err := mk(1, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	client, c2, err := mk(2)
	if err != nil {
		c1()
		return nil, nil, nil, err
	}
	return server, client, func() { c1(); c2() }, nil
}
