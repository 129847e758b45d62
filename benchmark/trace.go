package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/session"
	"repro/internal/wire"
)

// The traced run puts both halves of the system in this process, so
// they share a clock, and records ten timestamps per invocation from the
// benchmark's own files: the caller around Proxy.Invoke, a tap
// netsim.Endpoint between each kernel and its coalescer, and a tap
// core.Service around the handler. Nine spans lie between the ten stamps.

// stamp names one of the ten instants of an invocation, in causal order.
type stamp int

const (
	tInvoke        stamp = iota // caller enters Proxy.Invoke
	tClientSendIn               // client kernel hands the request to its endpoint
	tClientSendOut              // that Send returns
	tServerRecv                 // server endpoint delivers the request to its kernel
	tHandlerIn                  // service handler entered
	tHandlerOut                 // service handler returned
	tServerSendIn               // server kernel hands the reply to its endpoint
	tServerSendOut              // that Send returns
	tClientRecv                 // client endpoint delivers the reply to its kernel
	tReturn                     // Proxy.Invoke returns to the caller
	numStamps
)

// spanNames[i] is the span from stamp i to stamp i+1.
var spanNames = [numStamps - 1]string{
	"client_send", "client_xmit", "wire_out", "server_dispatch", "handler",
	"server_reply", "server_xmit", "wire_back", "client_wake",
}

type event struct {
	id uint64 // request id for frame stamps, invocation id for the rest
	t  int64  // ns since the recorder's epoch
}

type eventLog struct {
	mu sync.Mutex
	ev []event
}

func (l *eventLog) add(id uint64, t int64) {
	l.mu.Lock()
	l.ev = append(l.ev, event{id, t})
	l.mu.Unlock()
}

// events returns what has been logged so far. A server Send can return
// after its reply has already ended the run, so even a stopped recorder
// is read under the lock.
func (l *eventLog) events() []event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ev
}

// recorder keeps every stamp in memory, one append-only log per stamp
// kind, and joins them into per-invocation timelines after the run.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	logs  [numStamps]eventLog
	// links pairs a request id (what the frame taps see, in id) with an
	// invocation id (what the caller and the handler tap see, in t).
	links eventLog
	// ops[s] is the invocation counter of the caller that owns stripe s:
	// a closed-loop caller has one invocation outstanding, so a tap that
	// reads the stripe off a key knows which invocation it is looking at.
	ops [maxStripes]*atomic.Int64
	// solo is the only caller, when there is just one: its requests need
	// no decoding to be told apart.
	solo *caller
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// invocationID packs a stripe and that caller's invocation number.
func invocationID(stripe int, op int64) uint64 { return uint64(stripe)<<48 | uint64(op) }

// current is the id of the invocation the owner of key has outstanding.
func (r *recorder) current(key string) (uint64, bool) {
	if key == "" {
		return 0, false
	}
	s := stripeOf(key)
	if s < 0 || s >= maxStripes || r.ops[s] == nil {
		return 0, false
	}
	return invocationID(s, r.ops[s].Load()), true
}

// owner is the id of the invocation a request payload belongs to. A lone
// caller owns them all; with several, the first argument's stripe tells.
func (r *recorder) owner(payload []byte) (uint64, bool) {
	if r.solo != nil {
		return invocationID(stripeOf(r.solo.keys[0]), r.solo.op.Load()), true
	}
	_, _, body := core.SplitHeaders(payload)
	vec, err := codec.DecodeArgs(body)
	if err != nil || len(vec) < 3 {
		return 0, false
	}
	key, _ := vec[2].(string)
	return r.current(key)
}

// tracedStep wraps a workload step with the caller's two stamps.
func (r *recorder) tracedStep(step func(*caller) bool) func(*caller) bool {
	return func(c *caller) bool {
		if !r.on.Load() {
			return step(c)
		}
		id := invocationID(stripeOf(c.keys[0]), c.op.Add(1))
		r.logs[tInvoke].add(id, r.now())
		ok := step(c)
		r.logs[tReturn].add(id, r.now())
		return ok
	}
}

// tapEndpoint is a netsim.Endpoint that timestamps frames on their way
// through. It sits where the kernel expects its endpoint, above the
// coalescer. The client's tap stamps requests going out and replies
// coming in; the server's tap the reverse.
type tapEndpoint struct {
	inner    netsim.Endpoint
	rec      *recorder
	client   bool
	out      chan *wire.Frame
	sendIn   stamp
	sendOut  stamp
	recvMark stamp
}

func newTap(inner netsim.Endpoint, rec *recorder, client bool) *tapEndpoint {
	t := &tapEndpoint{inner: inner, rec: rec, client: client,
		// As deep as the TCP endpoint's own receive queue, so the tap
		// adds a hand-off but no new place to drop frames.
		out: make(chan *wire.Frame, 1024)}
	if client {
		t.sendIn, t.sendOut, t.recvMark = tClientSendIn, tClientSendOut, tClientRecv
	} else {
		t.sendIn, t.sendOut, t.recvMark = tServerSendIn, tServerSendOut, tServerRecv
	}
	go t.pump()
	return t
}

// mine reports whether f, seen in the given direction, is one this tap
// stamps: the client sends requests and receives replies, the server the
// reverse. Retransmissions are not stamped; the first copy counts.
func (t *tapEndpoint) mine(f *wire.Frame, sending bool) bool {
	if !t.rec.on.Load() || f.Flags&wire.FlagRetransmit != 0 {
		return false
	}
	isReply := f.Flags&wire.FlagResponse != 0
	if !isReply && f.Kind != wire.KindRequest {
		return false
	}
	return isReply != (t.client == sending)
}

func (t *tapEndpoint) Send(f *wire.Frame) error {
	if !t.mine(f, true) {
		return t.inner.Send(f)
	}
	id := f.ReqID
	t.rec.logs[t.sendIn].add(id, t.rec.now())
	err := t.inner.Send(f)
	t.rec.logs[t.sendOut].add(id, t.rec.now())
	if t.client {
		// After the stamps, off the measured path: find out whose request
		// this was. The frame is still the caller's until Send returns.
		if inv, ok := t.rec.owner(f.Payload); ok {
			t.rec.links.add(id, int64(inv))
		}
	}
	return err
}

func (t *tapEndpoint) pump() {
	defer close(t.out)
	for f := range t.inner.Recv() {
		if f.Kind == wire.KindTrain {
			now := t.rec.now()
			_, _, _ = wire.ForEachTrainMember(f.Payload, func(m *wire.Frame) {
				if t.mine(m, false) {
					t.rec.logs[t.recvMark].add(m.ReqID, now)
				}
			})
		} else if t.mine(f, false) {
			t.rec.logs[t.recvMark].add(f.ReqID, t.rec.now())
		}
		t.out <- f
	}
}

func (t *tapEndpoint) Recv() <-chan *wire.Frame { return t.out }
func (t *tapEndpoint) LocalNode() wire.NodeID   { return t.inner.LocalNode() }
func (t *tapEndpoint) Close() error             { return t.inner.Close() }

// MarkTrainCapable forwards the kernel's capability learning to the
// coalescer below, which the tap would otherwise hide.
func (t *tapEndpoint) MarkTrainCapable(n wire.NodeID) {
	if m, ok := t.inner.(interface{ MarkTrainCapable(wire.NodeID) }); ok {
		m.MarkTrainCapable(n)
	}
}

// tapService stamps handler entry and return.
type tapService struct {
	inner core.Service
	rec   *recorder
}

func (s tapService) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	var id uint64
	traced := false
	if s.rec.on.Load() && len(args) > 0 {
		if key, ok := args[0].(string); ok {
			id, traced = s.rec.current(key)
		}
	}
	if !traced {
		return s.inner.Invoke(ctx, method, args)
	}
	s.rec.logs[tHandlerIn].add(id, s.rec.now())
	res, err := s.inner.Invoke(ctx, method, args)
	s.rec.logs[tHandlerOut].add(id, s.rec.now())
	return res, err
}

// guardOptions are the kernel options proxyd derives from a workload's
// flags: -overload and -session-dedup for guarded-write, none otherwise.
func guardOptions(w workload, reg *obs.Registry) []kernel.NodeOption {
	if !w.guarded {
		return nil
	}
	return []kernel.NodeOption{
		kernel.WithAdmission(overload.NewController(overload.Config{}, reg, "")),
		kernel.WithSessions(session.NewTable(session.Config{TTL: session.DefaultTTL})),
	}
}

// inprocServer is the daemon's half assembled in this process, in the
// order and with the options cmd/proxyd uses for the workload's flags.
// With a nil recorder it carries no taps: the baseline the traced run's
// overhead is measured against.
type inprocServer struct {
	node    *kernel.Node
	monitor *health.Monitor
	addr    string
}

func startInproc(w workload, rec *recorder) (*inprocServer, error) {
	ep, err := netsim.ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	observer := obs.NewObserver()
	var kernelEP netsim.Endpoint = netsim.Coalesce(ep, wire.CoalescerConfig{})
	var kv core.Service = bench.NewKV()
	if rec != nil {
		kernelEP = newTap(kernelEP, rec, false)
		kv = tapService{inner: kv, rec: rec}
	}
	s := &inprocServer{node: kernel.NewNode(kernelEP, guardOptions(w, observer.Registry)...), addr: ep.ListenAddr()}
	ktx, err := s.node.NewContext()
	if err != nil {
		s.close()
		return nil, err
	}
	s.monitor = health.NewMonitor(ktx, health.WithInterval(0), health.WithObserver(observer))
	rtOpts := []core.RuntimeOption{core.WithObserver(observer), core.WithHealth(s.monitor)}
	if w.guarded {
		rtOpts = append(rtOpts, core.WithSessions())
	}
	rt := core.NewRuntime(ktx, rtOpts...)
	dir := naming.NewDirectory()
	dirRef, err := rt.Export(dir, naming.TypeName)
	if err == nil && dirRef.Target.Object != naming.WellKnownObject {
		err = fmt.Errorf("directory landed at object %d, want %d", dirRef.Target.Object, naming.WellKnownObject)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	kvRef, err := rt.Export(kv, "KV")
	if err != nil {
		s.close()
		return nil, err
	}
	dir.Bind("services/kv", kvRef, 0)
	return s, nil
}

func (s *inprocServer) close() {
	if s.monitor != nil {
		_ = s.monitor.Close()
	}
	_ = s.node.Close()
}

// timeline is one invocation's ten stamps; 0 marks one never recorded.
type timeline struct {
	req uint64
	t   [numStamps]int64
}

// timelines joins the logs. The first stamp of a kind wins, so a
// duplicate delivery cannot move a span's end.
func (r *recorder) timelines() []timeline {
	links := r.links.events()
	reqOf := make(map[uint64]uint64, len(links)) // invocation → request
	for _, l := range links {
		if _, dup := reqOf[uint64(l.t)]; !dup {
			reqOf[uint64(l.t)] = l.id
		}
	}
	byReq := make(map[uint64]*timeline, len(reqOf))
	invoked := r.logs[tInvoke].events()
	out := make([]timeline, 0, len(invoked))
	for _, e := range invoked {
		out = append(out, timeline{req: reqOf[e.id]})
	}
	byInv := make(map[uint64]*timeline, len(out))
	for i, e := range invoked {
		tl := &out[i]
		byInv[e.id] = tl
		if tl.req != 0 {
			byReq[tl.req] = tl
		}
	}
	for s := stamp(0); s < numStamps; s++ {
		index := byReq
		if s == tInvoke || s == tReturn || s == tHandlerIn || s == tHandlerOut {
			index = byInv
		}
		for _, e := range r.logs[s].events() {
			if tl := index[e.id]; tl != nil && tl.t[s] == 0 {
				tl.t[s] = e.t
			}
		}
	}
	return out
}

// spans turns a timeline into its nine span durations. A request the
// kernel answered from its dedup table never reached the handler: its
// handler stamps are set to the reply's send, so the whole server side
// up to there counts as dispatch. The two "Send returned" stamps are not
// on the causal path — on loopback the peer often has the frame before
// the sender's Send has returned, and a server Send can return after the
// caller already has its reply — so each is pulled back to the peer's
// receipt when it comes later: xmit is the time inside Send until the
// peer had the frame, wire the time from Send's return to the peer's
// receipt (0 when the receipt came first). The stamps are then in causal
// order, no span is negative, and the nine add up to tReturn − tInvoke
// exactly. ok is false when any other stamp is missing.
func (tl timeline) spans() (d [numStamps - 1]int64, ok bool) {
	t := tl.t
	if t[tHandlerIn] == 0 && t[tHandlerOut] == 0 {
		t[tHandlerIn], t[tHandlerOut] = t[tServerSendIn], t[tServerSendIn]
	}
	for _, v := range t {
		if v == 0 {
			return d, false
		}
	}
	t[tClientSendOut] = min(t[tClientSendOut], t[tServerRecv])
	t[tServerSendOut] = min(t[tServerSendOut], t[tClientRecv])
	for i := 1; i < int(numStamps); i++ {
		// A no-op on a shared monotonic clock; it keeps the partition
		// exact even if two stamps were ever recorded out of order.
		t[i] = min(max(t[i], t[i-1]), t[tReturn])
		d[i-1] = t[i] - t[i-1]
	}
	return d, true
}

// spanMeans averages each span over the complete timelines.
func spanMeans(tls []timeline) (means [numStamps - 1]float64, complete int) {
	var sums [numStamps - 1]int64
	for _, tl := range tls {
		d, ok := tl.spans()
		if !ok {
			continue
		}
		complete++
		for i, v := range d {
			sums[i] += v
		}
	}
	for i, s := range sums {
		means[i] = ratio(float64(s), float64(complete))
	}
	return means, complete
}

// traceSpan is one span as written to the trace file.
type traceSpan struct {
	Name    string `json:"name"`
	Request uint64 `json:"request"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceFileSpans bounds the trace file: the means are over every
// invocation, the file holds the first of them for inspection.
const traceFileSpans = 2000

// writeTrace writes the spans of the first complete timelines as JSON.
func writeTrace(path string, tls []timeline) error {
	var spans []traceSpan
	for _, tl := range tls {
		d, ok := tl.spans()
		if !ok {
			continue
		}
		spans = append(spans, traceSpan{Name: "invoke", Request: tl.req, StartNS: tl.t[tInvoke], EndNS: tl.t[tReturn]})
		at := tl.t[tInvoke]
		for i, v := range d {
			spans = append(spans, traceSpan{Name: spanNames[i], Request: tl.req, Parent: "invoke", StartNS: at, EndNS: at + v})
			at += v
		}
		if len(spans) >= traceFileSpans*int(numStamps) {
			break
		}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
