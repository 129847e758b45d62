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
// (duplicate suppression), and the ablation row served by a bare kernel
// handler — an rpc.Server without dedup is exactly that — shows duplicate
// executions: why the dedup table exists. Expected shape: latency and
// retransmissions climb with loss; the "executed" column equals the op
// count in every dedup row and exceeds it in the bare-handler ablation.
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
				label = "off (bare handler)"
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

	serverRT, clientRT, cleanup, err := e7Runtimes(net)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cleanup()

	var executed atomic.Int64
	svc := core.ServiceFunc(func(ctx context.Context, method string, args []any) ([]any, error) {
		executed.Add(1)
		return nil, nil
	})

	exported, err := serverRT.Export(svc, "E7")
	if err != nil {
		return 0, 0, 0, err
	}
	// Server-side at-most-once is built into the export path; the ablation
	// reaches beneath it with a bare kernel handler that runs every frame
	// it is handed.
	target := exported.Target
	if !dedup {
		id := serverRT.Kernel().Register(kernel.HandlerFunc(func(ktx *kernel.Context, f *wire.Frame) {
			executed.Add(1)
			_ = ktx.Respond(f, wire.KindReply, nil)
		}))
		target = wire.ObjAddr{Addr: serverRT.Addr(), Object: id}
	}

	client := rpc.NewClient(clientRT.Kernel(),
		rpc.WithRetryInterval(5*time.Millisecond), rpc.WithMaxAttempts(200))
	ctx := context.Background()
	var timer bench.Timer
	for i := 0; i < ops; i++ {
		start := time.Now()
		var err error
		if dedup {
			_, err = client.Call(ctx, target, wire.KindRequest, e7Request())
		} else {
			_, err = client.Call(ctx, target, wire.KindRequest, nil)
		}
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

func e7Runtimes(net *netsim.Network) (server, client *core.Runtime, cleanup func(), err error) {
	mk := func(id wire.NodeID) (*core.Runtime, func(), error) {
		ep, err := net.Attach(id)
		if err != nil {
			return nil, nil, err
		}
		node := kernelNode(ep)
		ktx, err := node.NewContext()
		if err != nil {
			node.Close()
			return nil, nil, err
		}
		return core.NewRuntime(ktx), func() { node.Close() }, nil
	}
	server, c1, err := mk(1)
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
