package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/wire"
)

// The layer ladder times calls into each layer's public functions with
// the workload's own message shape, bottom rung (codec) to top (a stub
// invocation between two runtimes in this process, over loopback TCP).
// A round-trip rung minus the rung below it is that layer's self time.

// sink keeps the compiler from discarding a timed call's result.
var sink any

// timeOp reports the cost of one fn call in ns.
func timeOp(budget time.Duration, fn func()) float64 { return timeOps(budget, fn)[0] }

// timeOps times several functions within budget and reports each one's
// cost per call in ns: the median of its batch means over nine rounds.
// The rounds visit the functions in turn, so that a slow or fast phase
// of the machine falls on all of them and their differences stay
// meaningful.
func timeOps(budget time.Duration, fns ...func()) []float64 {
	const rounds = 9
	batch := budget / time.Duration(rounds*len(fns))
	iters := make([]int, len(fns))
	for i, fn := range fns {
		start := time.Now()
		fn()
		iters[i] = min(max(int(batch/max(time.Since(start), time.Nanosecond)), 1), 1<<22)
	}
	means := make([][]float64, len(fns))
	for r := 0; r < rounds; r++ {
		for i, fn := range fns {
			start := time.Now()
			for n := 0; n < iters[i]; n++ {
				fn()
			}
			means[i] = append(means[i], float64(time.Since(start))/float64(iters[i]))
		}
	}
	out := make([]float64, len(fns))
	for i := range out {
		out[i] = median(means[i])
	}
	return out
}

// shape is the representative message of a workload: the invocation its
// callers make most, with the context headers they make it under.
type shape struct {
	method  string
	args    []any
	results []any
	guarded bool
}

func shapeOf(w workload) shape {
	key := "A0000001"
	v := int64(123456789012)
	switch w.name {
	case "bulk-call":
		return shape{method: "noop", args: []any{string(stripeTag(0)) + strings.Repeat("x", bulkPad-1)}}
	case "fanin-mix":
		return shape{method: "put", args: []any{key, v}, results: []any{v}}
	case "guarded-write":
		return shape{method: "incr", args: []any{key}, results: []any{v}, guarded: true}
	default:
		return shape{method: "get", args: []any{key}, results: []any{v}}
	}
}

// callCtx is the context a guarded-write caller invokes under — a
// deadline, plus the priority and session marks when stamped is true.
// The deadline is an hour away, not the callers' 1 s: it must outlast
// the ladder, or the header would vanish from the shape half way.
func (s shape) callCtx(stamped bool) (context.Context, context.CancelFunc) {
	if !s.guarded {
		return context.Background(), func() {}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	if stamped {
		ctx = core.ContextWithSession(core.WithPriority(ctx, wire.PriorityLow), 0x5e55105e55105e55, 7)
	}
	return ctx, cancel
}

// ladder runs every rung for w within about budget and returns the
// ladder.* metrics. e2eP50us is the multi-process p50 the top rung is
// compared with.
func ladder(w workload, seed int64, budget time.Duration, e2eP50us float64) (map[string]float64, error) {
	m := make(map[string]float64)
	unit := budget / 40 // 19 CPU rungs of one unit, 4 round-trip rungs of five
	s := shapeOf(w)
	dec := &codec.Decoder{}

	// codec: the argument vector alone.
	argBuf, err := codec.EncodeArgs(s.args...)
	if err != nil {
		return nil, err
	}
	m["ladder.codec.encode_ns"] = timeOp(unit, func() { sink, _ = codec.EncodeArgs(s.args...) })
	m["ladder.codec.decode_ns"] = timeOp(unit, func() { sink, _ = dec.DecodeArgs(argBuf) })
	var before, after runtime.MemStats
	const allocRounds = 2000
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRounds; i++ {
		b, _ := codec.EncodeArgs(s.args...)
		sink, _ = dec.DecodeArgs(b)
	}
	runtime.ReadMemStats(&after)
	m["ladder.codec.allocs"] = float64(after.Mallocs-before.Mallocs) / allocRounds

	// core: request and result payloads, headers included.
	ctx, cancel := s.callCtx(true)
	defer cancel()
	const capToken = 0
	reqPayload, err := core.AppendRequestCtx(nil, ctx, capToken, s.method, s.args)
	if err != nil {
		return nil, err
	}
	resPayload, err := core.EncodeResults(s.results)
	if err != nil {
		return nil, err
	}
	scratch := make([]byte, 0, len(reqPayload)+64)
	m["ladder.core.request_encode_ns"] = timeOp(unit, func() {
		scratch, _ = core.AppendRequestCtx(scratch[:0], ctx, capToken, s.method, s.args)
	})
	m["ladder.core.request_decode_ns"] = timeOp(unit, func() { _, _, _, _, sink, _ = core.DecodeRequestFull(dec, reqPayload) })
	m["ladder.core.results_encode_ns"] = timeOp(unit, func() { sink, _ = core.EncodeResults(s.results) })
	m["ladder.core.results_decode_ns"] = timeOp(unit, func() { sink, _ = core.DecodeResults(dec, resPayload) })

	// wire: the three optional headers, whichever the workload sends.
	var hdr []byte
	m["ladder.wire.headers_append_ns"] = timeOp(unit, func() {
		hdr = wire.AppendPriorityHeader(hdr[:0], wire.PriorityLow)
		hdr = wire.AppendSessionHeader(hdr, 0x5e55105e55105e55, 7)
		hdr = wire.AppendDeadlineHeader(hdr, time.Second)
	})
	m["ladder.wire.headers_split_ns"] = timeOp(unit, func() {
		_, rest := wire.SplitPriorityHeader(hdr)
		_, _, rest = wire.SplitSessionHeader(rest)
		_, sink = wire.SplitDeadlineHeader(rest)
	})
	stamped := append(append([]byte(nil), hdr...), reqPayload...)
	m["ladder.wire.deadline_rewrite_ns"] = timeOp(unit, func() { sink = wire.RewriteDeadlineHeader(stamped, 900*time.Millisecond) })

	// wire: one frame at the workload's request size.
	frame := &wire.Frame{
		Kind: wire.KindRequest, ReqID: 42, Object: 2, Payload: reqPayload,
		Src: wire.Addr{Node: clientNode, Context: 1}, Dst: wire.Addr{Node: 1, Context: 1},
	}
	encoded, err := frame.Encode(nil)
	if err != nil {
		return nil, err
	}
	m["ladder.wire.frame_encode_ns"] = timeOp(unit, func() { encoded, _ = frame.Encode(encoded[:0]) })
	m["ladder.wire.frame_decode_ns"] = timeOp(unit, func() { sink, _, _ = wire.Decode(encoded) })
	m["ladder.wire.frame_mb_s"] = float64(len(reqPayload)) / m["ladder.wire.frame_encode_ns"] * 1e3

	// wire: trains of eight members, and the coalescer in front of them.
	const members = 8
	var train []byte
	m["ladder.wire.train_pack_ns"] = timeOp(unit, func() {
		train = train[:0]
		for i := 0; i < members; i++ {
			train, _ = wire.AppendTrainMember(train, frame)
		}
	})
	m["ladder.wire.train_unpack_ns"] = timeOp(unit, func() {
		_, _, _ = wire.ForEachTrainMember(train, func(f *wire.Frame) { sink = f.ReqID })
	})
	m["ladder.wire.coalescer_send1_ns"] = coalescerSend(unit, 1, frame)
	m["ladder.wire.coalescer_send8_ns"] = coalescerSend(unit, members, frame)

	// session and overload: the two gates guarded-write passes.
	tab := session.NewTable(session.Config{})
	var seq uint64
	m["ladder.session.begin_commit_ns"] = timeOp(unit, func() {
		seq++
		tab.Begin(1, seq)
		tab.Commit(1, seq, wire.KindReply, false, resPayload)
	})
	m["ladder.session.replay_ns"] = timeOp(unit, func() { _, sink = tab.Begin(1, seq) })
	ctl := overload.NewController(overload.Config{}, nil, "")
	admitted := make(chan struct{}, 1)
	m["ladder.overload.submit_ns"] = timeOp(unit, func() {
		ctl.Submit(wire.PriorityNormal, func() { admitted <- struct{}{} }, nil)
		<-admitted
	})

	// Round trips over loopback TCP, one layer added per rung. The
	// payload for the lower rungs carries no session header: a fixed
	// identity would turn every call after the first into a dedup replay.
	rttCtx, rttCancel := s.callCtx(false)
	defer rttCancel()
	rttPayload, err := core.AppendRequestCtx(nil, rttCtx, capToken, s.method, s.args)
	if err != nil {
		return nil, err
	}
	pp, err := newPingPong(rttPayload, resPayload)
	if err != nil {
		return nil, err
	}
	defer pp.close()
	pair, err := newNodePair(w)
	if err != nil {
		return nil, err
	}
	defer pair.close()
	bg := context.Background()
	var callErr error
	echo := pair.server.Register(kernel.HandlerFunc(func(ktx *kernel.Context, f *wire.Frame) {
		_ = ktx.Respond(f, wire.KindReply, resPayload)
	}))
	kernelCall := func() {
		if _, err := pair.client.Call(bg, pair.server.Addr(), echo, wire.KindRequest, 0, rttPayload); err != nil {
			callErr = err
		}
	}
	rpcObj := pair.server.Register(rpc.NewServer(rpc.HandlerFunc(func(*rpc.Request) (wire.Kind, []byte, []byte) {
		return wire.KindReply, resPayload, nil
	})))
	rpcClient := rpc.NewClient(pair.client)
	rpcDst := wire.ObjAddr{Addr: pair.server.Addr(), Object: rpcObj}
	rpcCall := func() {
		if _, err := rpcClient.CallFrame(bg, rpcDst, wire.KindRequest, rttPayload); err != nil {
			callErr = err
		}
	}
	// The top rung is the workload's own step, verification included,
	// against a KV exported by a second runtime in this process.
	var rtOpts []core.RuntimeOption
	if w.guarded {
		rtOpts = append(rtOpts, core.WithSessions())
	}
	serverRT := core.NewRuntime(pair.server, rtOpts...)
	ref, err := serverRT.Export(bench.NewKV(), "KV")
	if err != nil {
		return nil, err
	}
	clientRT := core.NewRuntime(pair.client, append(rtOpts, patientClient(pair.client))...)
	clientRT.RegisterIdempotent("KV", "get", "sum", "noop")
	proxy, err := clientRT.Import(ref)
	if err != nil {
		return nil, err
	}
	c := newCaller(w, 0, seed, proxy)
	if w.preload {
		if err := c.load(bg); err != nil {
			return nil, err
		}
	}

	rtts := timeOps(20*unit, pp.roundTrip, kernelCall, rpcCall, func() { w.step(c) })
	if pp.err != nil {
		callErr = pp.err
	}
	if callErr != nil {
		return nil, fmt.Errorf("ladder round trip: %w", callErr)
	}
	if c.failed > 0 {
		return nil, fmt.Errorf("ladder invoke rung: %d wrong replies, first: %s", c.failed, c.firstErr)
	}
	m["ladder.netsim.tcp_rtt_ns"] = rtts[0]
	m["ladder.netsim.tcp_send_ns"] = ratio(float64(pp.inSend), float64(pp.sends))
	m["ladder.kernel.call_rtt_ns"] = rtts[1]
	m["ladder.kernel.self_ns"] = rtts[1] - rtts[0]
	m["ladder.rpc.call_rtt_ns"] = rtts[2]
	m["ladder.rpc.self_ns"] = rtts[2] - rtts[1]
	m["ladder.core.invoke_rtt_ns"] = rtts[3]
	m["ladder.core.self_ns"] = rtts[3] - rtts[2]
	if e2eP50us > 0 {
		diff := e2eP50us - rtts[3]/1e3
		if diff < 0 {
			diff = -diff
		}
		m["ladder.residual_frac"] = diff / e2eP50us
	}
	return m, nil
}

// coalescerSend times Coalescer.Send into a sink that discards, with the
// given number of concurrent senders; the result is wall time per send.
func coalescerSend(budget time.Duration, senders int, frame *wire.Frame) float64 {
	co := wire.NewCoalescer(clientNode, func(*wire.Frame) error { return nil }, wire.CoalescerConfig{})
	defer co.Close()
	co.MarkCapable(frame.Dst.Node)
	const batch = 256
	return timeOp(budget, func() {
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f := *frame
				for i := 0; i < batch; i++ {
					_ = co.Send(&f)
				}
			}()
		}
		wg.Wait()
	}) / float64(batch*senders)
}

// pingPong bounces a request-sized frame off a second TCP endpoint that
// answers with a reply-sized one: the transport rung, nothing above it.
type pingPong struct {
	a, b   *netsim.TCPEndpoint
	req    wire.Frame
	inSend time.Duration // total time inside a.Send
	sends  int
	// lost bounds the wait for a reply. Loopback TCP does not lose
	// frames, so it only turns a bug into an error instead of a hang.
	lost *time.Timer
	err  error
}

func newPingPong(reqPayload, resPayload []byte) (*pingPong, error) {
	b, err := netsim.ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	a, err := netsim.ListenTCP(clientNode, "127.0.0.1:0", map[wire.NodeID]string{1: b.ListenAddr()})
	if err != nil {
		b.Close()
		return nil, err
	}
	go func() {
		for f := range b.Recv() {
			reply := wire.Frame{Kind: wire.KindReply, Flags: wire.FlagResponse, ReqID: f.ReqID, Src: f.Dst, Dst: f.Src, Payload: resPayload}
			_ = b.Send(&reply)
		}
	}()
	return &pingPong{a: a, b: b, lost: time.NewTimer(time.Hour), req: wire.Frame{
		Kind: wire.KindRequest, Object: 2, Payload: reqPayload,
		Src: wire.Addr{Node: clientNode, Context: 1}, Dst: wire.Addr{Node: 1, Context: 1},
	}}, nil
}

func (p *pingPong) roundTrip() {
	p.req.ReqID++
	start := time.Now()
	if err := p.a.Send(&p.req); err != nil {
		p.err = err
		return
	}
	p.inSend += time.Since(start)
	p.sends++
	p.lost.Reset(5 * time.Second)
	select {
	case <-p.a.Recv():
		p.lost.Stop()
	case <-p.lost.C:
		p.err = fmt.Errorf("tcp ping-pong: no reply to frame %d", p.req.ReqID)
	}
}

func (p *pingPong) close() {
	p.a.Close()
	p.b.Close()
}

// nodePair is two kernel nodes in this process joined by loopback TCP,
// each behind a train coalescer as proxyd and proxyctl put it, the server
// one carrying the workload's kernel options.
type nodePair struct {
	nodes          [2]*kernel.Node
	server, client *kernel.Context
}

func newNodePair(w workload) (*nodePair, error) {
	sep, err := netsim.ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	cep, err := netsim.ListenTCP(clientNode, "127.0.0.1:0", map[wire.NodeID]string{1: sep.ListenAddr()})
	if err != nil {
		sep.Close()
		return nil, err
	}
	p := &nodePair{}
	p.nodes[0] = kernel.NewNode(netsim.Coalesce(sep, wire.CoalescerConfig{}), guardOptions(w, nil)...)
	p.nodes[1] = kernel.NewNode(netsim.Coalesce(cep, wire.CoalescerConfig{}))
	if p.server, err = p.nodes[0].NewContext(); err == nil {
		p.client, err = p.nodes[1].NewContext()
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *nodePair) close() {
	for _, n := range p.nodes {
		_ = n.Close()
	}
}
