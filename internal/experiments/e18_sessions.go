package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/wire"
)

// E18Sessions measures the exactly-once layer from both ends.
//
// Part one is dedup-hit latency: a node with a session table answers a
// retransmitted (sid, seq) from the cached reply, skipping handler
// dispatch entirely. Against a handler with a deliberate 1ms apply cost,
// the fresh column pays RTT + handler while the dedup-hit column pays
// RTT alone — the gap IS the skipped dispatch, and the handler's apply
// count pins it (ops applies for 2*ops invocations).
//
// Part two is the failover duplicate audit: a replica group under
// session-stamped non-idempotent writes (each incr of its own key) loses
// its primary, the successor promotes, and every identity is then
// retransmitted. The promoted primary inherited the dedup state through
// the replicated log, so every retransmission must come back answered
// from cache — duplicates (a key at 2) and lost acked writes (a key at
// 0) must both read zero.
func E18Sessions(w io.Writer, cfg Config) error {
	header(w, "E18", "exactly-once sessions: dedup-hit latency and failover duplicate audit")

	fresh, hit, applies, ops, err := e18Latency(cfg)
	if err != nil {
		return fmt.Errorf("latency trial: %w", err)
	}
	lt := bench.Table{Headers: []string{"path", "p50", "p99", "handler applies"}}
	lt.Add("fresh apply", fresh.P50, fresh.P99, applies)
	lt.Add("dedup hit", hit.P50, hit.P99, 0)
	lt.Print(w)
	fmt.Fprintf(w, "(%d ops per path; the dedup hit skips the handler's 1ms apply — cached reply only)\n", ops)

	res, err := e18Failover(cfg)
	if err != nil {
		return fmt.Errorf("failover trial: %w", err)
	}
	ft := bench.Table{Headers: []string{"acked writes", "retransmissions", "cached replies", "duplicates", "lost"}}
	ft.Add(res.acked, res.retrans, res.cached, res.duplicates, res.lost)
	ft.Print(w)
	fmt.Fprintln(w, "(every identity retransmitted onto the promoted successor; duplicates and lost must be 0)")
	return nil
}

// e18SlowKV gives write methods a fixed apply cost so the latency table
// separates "executed the handler" from "answered from cache".
type e18SlowKV struct {
	kv    *bench.KV
	delay time.Duration
}

func (s *e18SlowKV) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	if method == "incr" || method == "put" {
		time.Sleep(s.delay)
	}
	return s.kv.Invoke(ctx, method, args)
}

// e18Latency times cfg.Ops fresh session-stamped incrs and then the same
// identities retransmitted against a kernel-level dedup table.
func e18Latency(cfg Config) (fresh, hit bench.Summary, applies, ops int, err error) {
	ops = cfg.Ops
	if ops > 250 {
		// Each fresh op pays the handler's 1ms apply; cap so the trial
		// stays bounded at any -ops setting.
		ops = 250
	}
	net := netsim.New(cfg.netOpts()...)
	defer net.Close()

	sep, err := net.Attach(1)
	if err != nil {
		return fresh, hit, 0, 0, err
	}
	// The reply window must cover the whole trial: every identity from
	// the fresh pass is retransmitted in the hit pass, so a default-sized
	// window (64) would expire the early ones.
	snode := kernel.NewNode(sep, kernel.WithSessions(session.NewTable(session.Config{RepliesPerSession: 2 * ops})))
	defer snode.Close()
	sktx, err := snode.NewContext()
	if err != nil {
		return fresh, hit, 0, 0, err
	}
	srv := core.NewRuntime(sktx)

	cep, err := net.Attach(2)
	if err != nil {
		return fresh, hit, 0, 0, err
	}
	cnode := kernel.NewNode(cep)
	defer cnode.Close()
	cktx, err := cnode.NewContext()
	if err != nil {
		return fresh, hit, 0, 0, err
	}
	cli := core.NewRuntime(cktx)

	svc := &e18SlowKV{kv: bench.NewKV(), delay: time.Millisecond}
	ref, err := srv.Export(svc, "SlowKV")
	if err != nil {
		return fresh, hit, 0, 0, err
	}
	p, err := cli.Import(ref)
	if err != nil {
		return fresh, hit, 0, 0, err
	}

	ctx := context.Background()
	const sid = uint64(0xE18)
	run := func(t *bench.Timer) error {
		for i := 1; i <= ops; i++ {
			sctx := core.ContextWithSession(ctx, sid, uint64(i))
			start := time.Now()
			res, ierr := p.Invoke(sctx, "incr", fmt.Sprintf("k%d", i))
			if ierr != nil {
				return ierr
			}
			t.Record(time.Since(start))
			if res[0] != int64(1) {
				return fmt.Errorf("k%d = %v, want 1 (duplicate apply)", i, res[0])
			}
		}
		return nil
	}
	var ft, ht bench.Timer
	if err := run(&ft); err != nil {
		return fresh, hit, 0, 0, err
	}
	// Same identities again: every one is a dedup hit.
	if err := run(&ht); err != nil {
		return fresh, hit, 0, 0, err
	}
	return ft.Summary(), ht.Summary(), ops, ops, nil
}

// e18Result is the failover audit ledger.
type e18Result struct {
	acked, retrans, cached, duplicates, lost int
}

// e18Failover crashes a session-stamped replica group's primary and
// retransmits every identity onto the promoted successor.
func e18Failover(cfg Config) (e18Result, error) {
	var res e18Result
	net := netsim.New(cfg.netOpts()...)
	defer net.Close()
	var nodes []*kernel.Node
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	rts := make([]*core.Runtime, 3)
	for i := range rts {
		ep, aerr := net.Attach(wire.NodeID(i + 1))
		if aerr != nil {
			return res, aerr
		}
		node := kernel.NewNode(ep)
		nodes = append(nodes, node)
		ktx, cerr := node.NewContext()
		if cerr != nil {
			return res, cerr
		}
		rts[i] = core.NewRuntime(ktx, core.WithSessions(), core.WithClient(rpc.NewClient(ktx,
			rpc.WithRetryInterval(2*time.Millisecond), rpc.WithMaxAttempts(50))))
	}
	factory := replica.NewFactory(bench.KVReads(),
		func() replica.StateMachine { return bench.NewKV() },
		replica.WithDeliverTimeout(60*time.Millisecond),
		replica.WithSyncInterval(20*time.Millisecond))
	for _, rt := range rts {
		rt.RegisterProxyType("KV", factory)
	}
	defer func() {
		for _, rt := range rts {
			rt.CloseProxies()
		}
	}()
	ref, err := rts[0].Export(bench.NewKV(), "KV")
	if err != nil {
		return res, err
	}
	pp, err := rts[1].Import(ref)
	if err != nil {
		return res, err
	}
	p2 := pp.(*replica.Proxy)
	pp, err = rts[2].Import(ref)
	if err != nil {
		return res, err
	}
	p3 := pp.(*replica.Proxy)

	ctx := context.Background()
	const sidBase = uint64(0xE18) << 32
	key := func(i int) string { return fmt.Sprintf("w%d", i) }
	sctx := func(i int) context.Context { return core.ContextWithSession(ctx, sidBase+uint64(i), 1) }

	const writes = 20
	for i := 1; i <= writes; i++ {
		if _, err := p2.Invoke(sctx(i), "incr", key(i)); err != nil {
			return res, fmt.Errorf("pre-crash write %d: %w", i, err)
		}
		res.acked++
	}

	net.Crash(1)
	// One fresh identity retried until the successor promotes and
	// acknowledges it; the session retry loop keeps the identity stable
	// across every attempt, so this write too applies exactly once.
	start := time.Now()
	for {
		if _, err := p2.Invoke(sctx(writes+1), "incr", key(writes+1)); err == nil {
			res.acked++
			break
		}
		if time.Since(start) > 20*time.Second {
			return res, fmt.Errorf("no failover within 20s")
		}
	}

	// Retransmit every identity, alternating between the promoted
	// primary's in-process path and the surviving member's remote path.
	for i := 1; i <= writes+1; i++ {
		p := p2
		if i%2 == 0 {
			p = p3
		}
		out, err := p.Invoke(sctx(i), "incr", key(i))
		if err != nil {
			return res, fmt.Errorf("retransmission of %s: %w", key(i), err)
		}
		res.retrans++
		if out[0] == int64(1) {
			res.cached++
		}
	}

	// Audit both survivors: every acked key exactly once, nowhere twice.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && p3.AppliedSeq() < p2.AppliedSeq() {
		time.Sleep(5 * time.Millisecond)
	}
	for _, p := range []*replica.Proxy{p2, p3} {
		kv := p.Local().(*bench.KV)
		for i := 1; i <= writes+1; i++ {
			switch got := kv.Get(key(i)); {
			case got > 1:
				res.duplicates++
			case got == 0:
				res.lost++
			}
		}
	}
	return res, nil
}
