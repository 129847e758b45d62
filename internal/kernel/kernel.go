// Package kernel implements the node/context runtime the proxy principle
// assumes: nodes host contexts (address spaces), contexts host objects, and
// the kernel's only job is to move frames between objects. It provides
// request/reply correlation and at-most-once execution — every two-way
// request is looked up once in the node's dedup table before admission —
// but deliberately does not interpret payloads: invocation semantics live
// in the layers above (rpc, core), and service-private protocols pass
// through unexamined. Admission class and dedup identity come from the
// frame's header and wire.Envelope, never from payload bytes.
package kernel

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/session"
	"repro/internal/wire"
)

// Handler receives the frames addressed to one object. Implementations are
// invoked concurrently and must do their own locking. A handler sees
// requests, never a response (a response belongs to the call waiting for
// it, which may Release it), and the request is the handler's for good:
// the kernel never reuses it. A two-way request is answered through
// Context.Respond: until it is, a retransmission of it is dropped as in
// flight, and after, answered with the committed reply.
type Handler interface {
	HandleFrame(ktx *Context, f *wire.Frame)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ktx *Context, f *wire.Frame)

// HandleFrame implements Handler.
func (fn HandlerFunc) HandleFrame(ktx *Context, f *wire.Frame) { fn(ktx, f) }

// Errors returned by kernel operations.
var (
	ErrClosed       = errors.New("kernel: closed")
	ErrNoContext    = errors.New("kernel: no such context")
	ErrNoObject     = errors.New("kernel: no such object")
	ErrObjectExists = errors.New("kernel: object id already registered")
)

// RemoteError is the error a Call returns when the far side answered with a
// KindError frame. Payload carries the codec-encoded error description.
type RemoteError struct {
	From    wire.Addr
	Payload []byte
	// NoRoute reports that the answering kernel found no such context or
	// object at the destination (the response carried wire.FlagNoRoute):
	// the request provably never executed, so callers may safely redirect
	// it to an alternate binding.
	NoRoute bool
	// Pushback reports that the answering kernel's admission controller
	// shed the request before it reached a service (the response carried
	// wire.FlagPushback): the request provably never executed, and the
	// sender should wait RetryAfter (a hint; zero when the payload
	// carried none) before offering more load.
	Pushback bool
	// RetryAfter is the overloaded node's retry-after hint (only
	// meaningful when Pushback is set).
	RetryAfter time.Duration
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.Pushback {
		return fmt.Sprintf("kernel: overload pushback from %s (retry after %s)", e.From, e.RetryAfter)
	}
	return fmt.Sprintf("kernel: remote error from %s (%d bytes)", e.From, len(e.Payload))
}

// RemoteErrorFrom builds the RemoteError for a KindError response frame,
// decoding the kernel-level flags it carried (FlagNoRoute, FlagPushback
// and its retry-after payload). The rpc layer shares it so both call
// paths classify kernel-level responses identically.
func RemoteErrorFrom(resp *wire.Frame) *RemoteError {
	re := &RemoteError{
		From:    resp.Src,
		Payload: resp.Payload,
		NoRoute: resp.Flags&wire.FlagNoRoute != 0,
	}
	if resp.Flags&wire.FlagPushback != 0 {
		re.Pushback = true
		re.RetryAfter = wire.DecodePushback(resp.Payload)
	}
	return re
}

// NodeOption configures a Node.
type NodeOption func(*Node)

// DefaultDispatchLimit is the default bound on concurrently-running
// handlers per node (see WithDispatchLimit).
const DefaultDispatchLimit = 512

// WithDispatchLimit bounds concurrently-running handlers (default
// DefaultDispatchLimit). When the limit saturates, the node's receive
// pump blocks before handing the next frame to a handler worker: inbound
// frames queue in the endpoint's receive buffer, then in the transport,
// so overload turns into backpressure on senders (and eventually rpc
// timeouts) instead of unbounded goroutine growth. A receive buffer that
// fills all the same drops the frame, and the TCP endpoint counts it
// (netsim.TCPEndpoint.RecvOverruns). The limit is also the only bound on
// the node's workers (see Node.launch). Responses are exempt — they
// complete pending calls directly and never consume a slot, so a
// saturated node can still drain the calls it has in flight.
func WithDispatchLimit(n int) NodeOption {
	return func(nd *Node) {
		if n > 0 {
			nd.sem = make(chan struct{}, n)
		}
	}
}

// WithAdmission replaces the fixed dispatch semaphore with an adaptive
// admission controller (internal/overload): sheddable inbound requests
// — KindRequest and service-private custom kinds — are admitted up to a
// concurrency limit learned from observed handler latency, queued
// briefly when the limit saturates, and shed with a pushback response
// (KindError + wire.FlagPushback carrying a retry-after hint) when they
// would wait past the queue deadline. Shed requests therefore fail fast
// at the sender instead of timing out. Priority classes ride the frame's
// envelope (wire.Envelope.Priority): high-priority traffic (replica
// syncs, rebalance steps) bypasses shedding, low-priority traffic sheds
// first. System kinds below KindCustom (membership, invalidations,
// leases, migration) are always treated as high priority — shedding
// coordination traffic would break coherence to save microseconds — and
// responses complete pending calls directly, exempt as ever. Pings are
// answered below admission entirely.
func WithAdmission(c *overload.Controller) NodeOption {
	return func(nd *Node) { nd.adm = c }
}

// TraceDirection labels a traced frame's direction relative to this node.
type TraceDirection uint8

// Trace directions.
const (
	// TraceSend is an outbound frame leaving any of the node's contexts.
	TraceSend TraceDirection = iota + 1
	// TraceRecv is an inbound frame about to be routed.
	TraceRecv
)

// String names the direction.
func (d TraceDirection) String() string {
	switch d {
	case TraceSend:
		return "send"
	case TraceRecv:
		return "recv"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// WithTrace installs an observability hook called for every frame the node
// sends or receives. The hook runs on the hot path and must be fast; the
// frame must not be retained or mutated. Payloads are visible to the hook,
// so deployments that trace must trust the tracer with service-private
// protocol contents.
func WithTrace(fn func(dir TraceDirection, f *wire.Frame)) NodeOption {
	return func(nd *Node) { nd.trace = fn }
}

// WithSessions substitutes a configured dedup table for the default one
// every node has. Dispatch presents every two-way request to it, below
// the object layer and before admission, under the identity the request
// carries: its session stamp (wire.Envelope.Session, Seq) or else its
// transmission (source address and request id). A request that already
// executed is answered from the cached reply without dispatching a
// handler; one still executing is dropped (the original will answer the
// retransmitting client); one the table has forgotten is refused with the
// session-expired error. Replies sent through Context.Respond/RespondError
// are recorded automatically; kernel-level no-route and pushback responses
// bypass recording by construction (they prove the invocation never ran —
// a retry SHOULD execute).
func WithSessions(tab *session.Table) NodeOption {
	return func(nd *Node) { nd.sessions = tab }
}

// trainCapMarker is implemented by endpoints that coalesce outbound
// frames into trains (netsim.CoalescedEndpoint) and need to learn which
// peers can unpack them. The kernel feeds it from the receive pump: any
// inbound frame advertising wire.FlagTrains proves its sender decodes
// trains too (the capability bit rides on every frame a coalescing peer
// sends, pings and acks included).
type trainCapMarker interface {
	MarkTrainCapable(wire.NodeID)
}

// Node hosts contexts on one endpoint and pumps inbound frames to them.
type Node struct {
	ep       netsim.Endpoint
	capMark  trainCapMarker
	sem      chan struct{}
	adm      *overload.Controller
	trace    func(TraceDirection, *wire.Frame)
	sessions *session.Table

	// inboundObs, when set, is called with the source node of every
	// inbound frame (see SetInboundObserver).
	inboundObs atomic.Pointer[func(src wire.NodeID)]

	// jobs hands a dispatched frame to a parked handler worker (see
	// launch); spawned counts the workers ever started.
	jobs       chan job
	workerIdle time.Duration
	spawned    atomic.Uint64

	mu       sync.Mutex
	contexts map[wire.ContextID]*Context
	nextCtx  wire.ContextID
	closed   bool
	done     chan struct{}
}

// NewNode wraps an endpoint. The node starts its receive pump immediately;
// call Close to stop it (closing the endpoint as well).
func NewNode(ep netsim.Endpoint, opts ...NodeOption) *Node {
	n := &Node{
		ep:       ep,
		sem:      make(chan struct{}, DefaultDispatchLimit),
		sessions: session.NewTable(session.Config{}),
		contexts: make(map[wire.ContextID]*Context),
		nextCtx:  1,
		done:     make(chan struct{}),

		jobs:       make(chan job),
		workerIdle: workerIdle,
	}
	for _, o := range opts {
		o(n)
	}
	if n.adm != nil {
		n.adm.SetLauncher(func(run func()) { n.launch(job{admitted: run}) })
	}
	n.capMark, _ = ep.(trainCapMarker)
	go n.pump()
	return n
}

// ID reports the node's identity.
func (n *Node) ID() wire.NodeID { return n.ep.LocalNode() }

// SessionTable exposes the node's dedup table (never nil), for the stats
// service to report its occupancy.
func (n *Node) SessionTable() *session.Table { return n.sessions }

// SetInboundObserver installs (nil removes) a hook called with the source
// node of every inbound frame from another node — including the liveness
// pings the kernel answers below the object layer, which otherwise leave
// no trace above it. The health monitor uses this as passive "we can
// still hear this node" evidence when classifying asymmetric partitions.
// The hook runs on the receive pump and must be fast and non-blocking.
func (n *Node) SetInboundObserver(fn func(src wire.NodeID)) {
	if fn == nil {
		n.inboundObs.Store(nil)
		return
	}
	n.inboundObs.Store(&fn)
}

// NewContext creates a fresh context (address space) on this node.
func (n *Node) NewContext() (*Context, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	id := n.nextCtx
	n.nextCtx++
	c := &Context{
		node:    n,
		addr:    wire.Addr{Node: n.ID(), Context: id},
		objects: make(map[wire.ObjectID]Handler),
		nextObj: 1,
	}
	for i := range c.pending {
		c.pending[i].m = make(map[uint64]chan *wire.Frame)
	}
	// A request id is a Birrell–Nelson conversation id (high half, drawn
	// at random here) over a sequence number (low half, counted from 1).
	// Remote dedup tables key a session on (source address, conversation)
	// and order it by sequence, so a context re-created at the same address
	// is neither answered with its predecessor's replies nor refused for
	// starting below its floor. A counter that overflows its low half
	// opens the next conversation.
	var seed [4]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		c.reqID.Store(uint64(binary.BigEndian.Uint32(seed[:])) << 32)
	}
	n.contexts[id] = c
	return c, nil
}

// Context returns the context with the given id, if it exists.
func (n *Node) Context(id wire.ContextID) (*Context, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.contexts[id]
	return c, ok
}

// Close stops the node: the endpoint closes, the pump drains, and every
// pending call fails.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ctxs := make([]*Context, 0, len(n.contexts))
	for _, c := range n.contexts {
		ctxs = append(ctxs, c)
	}
	n.mu.Unlock()
	err := n.ep.Close()
	<-n.done
	for _, c := range ctxs {
		c.failPending()
	}
	return err
}

func (n *Node) pump() {
	defer close(n.done)
	local := n.ID()
	for f := range n.ep.Recv() {
		if n.trace != nil {
			n.trace(TraceRecv, f)
		}
		if f.Src.Node != 0 && f.Src.Node != local {
			if p := n.inboundObs.Load(); p != nil {
				(*p)(f.Src.Node)
			}
			if n.capMark != nil && f.Flags&wire.FlagTrains != 0 {
				n.capMark.MarkTrainCapable(f.Src.Node)
			}
		}
		n.route(f)
	}
}

// job is one handler execution: h.HandleFrame(c, f) holding a dispatch
// slot, or — under WithAdmission — a request the controller admitted,
// which keeps its own accounts. It is handed over by value, so dispatch
// allocates nothing.
type job struct {
	c        *Context
	h        Handler
	f        *wire.Frame
	admitted func()
}

// workerIdle is the period of a parked worker's idle check: it retires at
// the first check that finds no work done since the previous one, so a
// burst's stacks are held for one to two periods.
const workerIdle = 5 * time.Second

// launch is the one place a goroutine starts to run a handler. The job
// goes to a worker that is already parked; a new worker starts only when
// none is. A worker keeps the stack its last handler grew, so the
// reflective decode under a stub call stops paying runtime.newstack on
// every request. A job is never queued behind a busy worker — handlers
// block on nested calls, and the frame that unblocks one may be the next
// to arrive — so the workers have no bound of their own: the dispatch
// slot (or admission) taken before launch is the bound.
func (n *Node) launch(j job) {
	select {
	case n.jobs <- j:
	default:
		n.spawned.Add(1)
		go n.work(j)
	}
}

// work runs jobs until the node closes or a whole idle period passes
// without one.
func (n *Node) work(j job) {
	idle := time.NewTicker(n.workerIdle)
	defer idle.Stop()
	n.run(j)
	worked := true // since the last idle tick
	for {
		select {
		case j = <-n.jobs:
			n.run(j)
			worked = true
		case <-n.done:
			return
		case <-idle.C:
			if !worked {
				return
			}
			worked = false
		}
	}
}

func (n *Node) run(j job) {
	if j.admitted != nil {
		j.admitted()
		return
	}
	j.h.HandleFrame(j.c, j.f)
	<-n.sem
}

func (n *Node) route(f *wire.Frame) {
	// Frame trains are unpacked here, below the object layer: each member
	// is routed as if it had arrived alone, so member requests fan out
	// onto the ordinary dispatch machinery (parallel handler workers)
	// and member responses complete the sharded pending table directly.
	// Members alias the train's payload, which trains never share and
	// nobody releases: a response member rides in a pooled reply frame
	// (wire.GetReply) whose Release recycles that frame alone, a request
	// member in a frame its handler owns for good. A member that fails
	// its own CRC is dropped by the walk (counted in wire.ReadTrainStats)
	// without affecting its neighbors, and a train with damaged framing
	// loses only its tail.
	if f.Kind == wire.KindTrain {
		_, _, _ = wire.ForEachTrainMember(f.Payload, func(m *wire.Frame) {
			var g *wire.Frame
			if m.Flags&wire.FlagResponse != 0 {
				g = wire.GetReply(m)
			} else {
				c := *m
				g = &c
			}
			if n.trace != nil {
				n.trace(TraceRecv, g)
			}
			n.route(g)
		})
		return
	}
	// Liveness probes are answered by the kernel itself, whatever context
	// they name: a ping asks "is this node up", not "is this object up".
	// The health monitor (internal/health) relies on this.
	if f.Kind == wire.KindPing && f.Flags&wire.FlagResponse == 0 {
		if f.Flags&wire.FlagOneWay == 0 && !f.Src.IsZero() {
			_ = n.respond(nil, f, wire.KindAck, 0, nil)
		}
		return
	}
	n.mu.Lock()
	c, ok := n.contexts[f.Dst.Context]
	n.mu.Unlock()
	if !ok {
		// Frame for a context that does not exist (it may have been
		// destroyed). Answer requests with an error so callers fail fast
		// instead of timing out; drop everything else, recycling a
		// response, which nobody else owns.
		switch {
		case f.Flags&wire.FlagResponse != 0:
			f.Release()
		case f.Flags&wire.FlagOneWay == 0 && !f.Src.IsZero():
			_ = n.respond(nil, f, wire.KindError, wire.FlagNoRoute, noSuchContext)
		}
		return
	}
	c.dispatch(f)
}

var noSuchContext = []byte("no such context")

// respond answers req with one pooled frame: kind, FlagResponse plus
// flags, req's id, back to req.Src from the kernel object. Through c it
// leaves by c.Send (Src is the context, the trace hook sees it); a request
// that reached no context (c nil) is answered straight from the endpoint
// as the address it named. Both transports copy before Send returns, so
// the frame is recycled at once.
func (n *Node) respond(c *Context, req *wire.Frame, kind wire.Kind, flags uint16, payload []byte) error {
	resp := wire.GetFrame()
	resp.Kind = kind
	resp.Flags = wire.FlagResponse | flags
	resp.ReqID = req.ReqID
	resp.Dst = req.Src
	resp.Object = wire.KernelObject
	resp.Payload = payload
	var err error
	if c != nil {
		err = c.Send(resp)
	} else {
		resp.Src = req.Dst
		err = n.ep.Send(resp)
	}
	resp.Release()
	return err
}

// pendingShards splits the per-context pending-call table so concurrent
// callers registering and completing calls don't contend on one mutex.
// Request ids are sequential, so id%pendingShards spreads neighbors
// across shards.
const pendingShards = 16

type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]chan *wire.Frame
}

// Context is one address space: a registry of objects plus the machinery
// for correlated calls out of this context.
type Context struct {
	node *Node
	addr wire.Addr

	mu      sync.Mutex
	objects map[wire.ObjectID]Handler
	nextObj wire.ObjectID

	// closed is checked under each shard's lock when registering a
	// pending call: failPending stores true before draining the shards,
	// so no registration can slip in after its shard was drained.
	closed  atomic.Bool
	pending [pendingShards]pendingShard

	reqID atomic.Uint64
}

func (c *Context) shard(id uint64) *pendingShard {
	return &c.pending[id%pendingShards]
}

// Addr reports the context's address.
func (c *Context) Addr() wire.Addr { return c.addr }

// Node returns the hosting node.
func (c *Context) Node() *Node { return c.node }

// Register adds an object and returns its fresh id. Ids are allocated
// densely from 1, stepping over any id a RegisterAt claimed — so a
// well-known object at a high id (the health prober, say) never shifts
// where sequential exports land (the directory must stay at object 1).
func (c *Context) Register(h Handler) wire.ObjectID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextObj
	for {
		if _, ok := c.objects[id]; !ok {
			break
		}
		id++
	}
	c.nextObj = id + 1
	c.objects[id] = h
	return id
}

// RegisterAt adds an object at a fixed id (well-known services). The
// sequential allocator is left alone: Register skips occupied ids.
func (c *Context) RegisterAt(id wire.ObjectID, h Handler) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.objects[id]; ok {
		return fmt.Errorf("%w: %d", ErrObjectExists, id)
	}
	c.objects[id] = h
	return nil
}

// Replace atomically swaps the handler registered at id, returning the
// previous handler. Migration uses this to install a forwarding tombstone
// at an object's old id without a window where callers see "no such
// object".
func (c *Context) Replace(id wire.ObjectID, h Handler) (Handler, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoObject, id)
	}
	c.objects[id] = h
	return old, nil
}

// Unregister removes an object. Frames already in flight to it will get
// "no such object" errors.
func (c *Context) Unregister(id wire.ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.objects, id)
}

// Lookup finds a registered object.
func (c *Context) Lookup(id wire.ObjectID) (Handler, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.objects[id]
	return h, ok
}

// ObjectCount reports how many objects are registered (for tests/metrics).
func (c *Context) ObjectCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.objects)
}

func (c *Context) dispatch(f *wire.Frame) {
	if f.Flags&wire.FlagResponse != 0 {
		// The send happens under the shard's lock, which is what lets
		// CancelPending recycle the waiter (see there); it never blocks,
		// because the entry leaves the map with the waiter's one frame,
		// and so does the frame's ownership. An unmatched response (a late
		// reply after a timeout, the answer to a duplicate retransmission)
		// is owned by nobody else, so it is recycled here.
		s := c.shard(f.ReqID)
		s.mu.Lock()
		ch, ok := s.m[f.ReqID]
		if ok {
			delete(s.m, f.ReqID)
			ch <- f
		}
		s.mu.Unlock()
		if !ok {
			f.Release()
		}
		return
	}
	c.mu.Lock()
	h, ok := c.objects[f.Object]
	c.mu.Unlock()
	if !ok {
		if f.Flags&wire.FlagOneWay == 0 && !f.Src.IsZero() {
			_ = c.node.respond(c, f, wire.KindError, wire.FlagNoRoute, []byte(fmt.Sprintf("no such object %d", f.Object)))
		}
		return
	}
	// At-most-once execution: the one lookup in the node's dedup table,
	// after the object lookup — a missing object must answer no-route so
	// failover knows the request never ran — and before admission or the
	// dispatch slot, so a repeat of a request that already ran is answered
	// from cache even on a saturated node, never shed.
	if sid, seq, repeat, ok := identity(f); ok {
		switch verdict, ent := c.node.sessions.BeginTransmission(sid, seq, repeat); verdict {
		case session.Replay:
			c.replayCached(f, ent)
			return
		case session.InFlight:
			// The original execution will answer; the client keeps
			// retransmitting under the same identity until it does.
			return
		case session.Expired:
			c.replyExpired(f)
			return
		default: // Fresh: marked in flight; Respond commits it.
		}
	}
	if ac := c.node.adm; ac != nil {
		// Adaptive admission (WithAdmission): the controller decides —
		// run now, queue briefly, or shed with pushback. The pump never
		// blocks; overload turns into fast failures instead of
		// backpressure-then-timeout.
		ac.Submit(admissionClass(f),
			func() { h.HandleFrame(c, f) },
			func(retryAfter time.Duration) { c.shed(f, retryAfter) })
		return
	}
	select {
	case c.node.sem <- struct{}{}:
	case <-c.node.done:
		return
	}
	c.node.launch(job{c: c, h: h, f: f})
}

// replayCached answers a deduplicated retransmission from the session
// table's cached reply, correlated to the NEW request's id — failover
// issues a fresh ReqID per attempt; (session, seq) is the stable
// identity across them.
func (c *Context) replayCached(f *wire.Frame, ent *session.Entry) {
	kind := ent.Kind
	if ent.IsErr {
		kind = wire.KindError
	}
	_ = c.node.respond(c, f, kind, 0, ent.Payload)
}

// replyExpired refuses a retry whose session the dedup table evicted.
// Deliberately NOT FlagNoRoute: the refusal must decode as a
// CodeSessionExpired InvokeError and surface to the caller — a no-route
// flag would license failover, and an alternate binding knows even less
// about whether the original executed.
func (c *Context) replyExpired(f *wire.Frame) {
	_ = c.node.respond(c, f, wire.KindError, 0, session.ExpiredPayload())
}

// identity names the dedup identity f is presented under; only a two-way
// request with a source has one. A session stamp on an invocation or
// service-private request is (Envelope.Session, Seq), and any presentation
// of it may repeat an earlier one: a failover attempt is a new
// transmission of an old call. Any other request is known by its
// transmission, and only a frame flagged FlagRetransmit repeats one —
// rpc.Client flags every re-send and the network never duplicates a frame.
func identity(f *wire.Frame) (sid, seq uint64, repeat, ok bool) {
	if f.Flags&wire.FlagOneWay != 0 || f.Src.IsZero() {
		return 0, 0, false, false
	}
	if f.Envelope.Session != 0 && (f.Kind == wire.KindRequest || f.Kind >= wire.KindCustom) {
		return f.Envelope.Session, f.Envelope.Seq, true, true
	}
	sid, seq = transmission(f)
	return sid, seq, f.Flags&wire.FlagRetransmit != 0, true
}

// transmission names f's transmission identity to a session.Table. A
// request id is a conversation id over a sequence number (NewContext): the
// session is (source address, conversation) and the sequence gives the
// table's floor its order (offset by one, the floor starts at 0). The
// key's 96 bits are hashed into the table's 64: two conversations, or one
// and a minted session id, collide with probability 2⁻⁶⁴ a pair.
func transmission(f *wire.Frame) (sid, seq uint64) {
	sid = mix64(mix64(uint64(f.Src.Node)<<32|uint64(f.Src.Context)) + f.ReqID>>32)
	if sid == 0 {
		sid = 1 // 0 means "no session" to the table
	}
	return sid, f.ReqID&0xFFFFFFFF + 1
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// shed answers a request the admission controller turned away. It never
// executed, so its in-flight mark is released — a retry under the same
// identity runs instead of waiting behind a ghost — and the sender is
// pushed back.
func (c *Context) shed(f *wire.Frame, retryAfter time.Duration) {
	if sid, seq, _, ok := identity(f); ok {
		c.node.sessions.Abort(sid, seq)
	}
	c.replyOverload(f, retryAfter)
}

// admissionClass grades an inbound request for the admission controller.
// Invocations (KindRequest) and service-private custom kinds carry their
// class in the envelope. System kinds below KindCustom are coordination
// traffic — invalidations, leases, membership, migration — never shed.
func admissionClass(f *wire.Frame) wire.Priority {
	if f.Kind == wire.KindRequest || f.Kind >= wire.KindCustom {
		return f.Envelope.Priority
	}
	return wire.PriorityHigh
}

// replyOverload answers a shed request with a pushback error so the
// sender fails fast; the payload carries the retry-after hint. One-way
// and unsourced frames are dropped silently — nobody awaits them.
func (c *Context) replyOverload(f *wire.Frame, retryAfter time.Duration) {
	if f.Flags&wire.FlagOneWay != 0 || f.Src.IsZero() {
		return
	}
	_ = c.node.respond(c, f, wire.KindError, wire.FlagPushback, wire.AppendPushback(nil, retryAfter))
}

// NextReqID allocates a request id unique within this context.
func (c *Context) NextReqID() uint64 { return c.reqID.Add(1) }

// waiters recycles the one-slot channels pending calls wait on; only
// CancelPending returns one, empty and out of every map (see there).
var waiters = sync.Pool{New: func() any { return make(chan *wire.Frame, 1) }}

// NewPending allocates a request id and registers a waiter for it: a
// channel that receives the response (or nil when the context shuts
// down), at most one frame. The caller only receives from it, owns
// retransmission, and must hand both back to CancelPending exactly once
// when done, whether or not a response arrived. This is the hook the rpc
// layer uses to retransmit one logical request under a single id.
func (c *Context) NewPending() (uint64, chan *wire.Frame, error) {
	id := c.NextReqID()
	ch := waiters.Get().(chan *wire.Frame)
	s := c.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed.Load() {
		waiters.Put(ch)
		return 0, nil, ErrClosed
	}
	s.m[id] = ch
	return id, ch, nil
}

// CancelPending ends the pending request id and recycles its waiter ch.
// Every frame reaches a waiter under its shard's lock (dispatch,
// failPending), so once CancelPending holds that lock, either the entry
// still maps to ch — no frame was sent, and deleting it stops any — or
// the frame is already in ch's buffer, and the drain takes it. The waiter
// goes back to the pool empty and unreachable, and a drained response,
// which no caller received, is recycled. ch must not be used after.
func (c *Context) CancelPending(id uint64, ch chan *wire.Frame) {
	s := c.shard(id)
	s.mu.Lock()
	if s.m[id] == ch {
		delete(s.m, id)
	}
	var late *wire.Frame
	select {
	case late = <-ch:
	default:
	}
	s.mu.Unlock()
	waiters.Put(ch)
	if late != nil {
		late.Release()
	}
}

// Send transmits a frame from this context. The frame's Src is stamped
// with the context's address.
func (c *Context) Send(f *wire.Frame) error {
	f.Src = c.addr
	if c.node.trace != nil {
		c.node.trace(TraceSend, f)
	}
	return c.node.ep.Send(f)
}

// Call sends a correlated request and waits for its response frame. The
// response is matched purely by ReqID + FlagResponse, so this works for
// system kinds and for service-private protocols alike. Cancellation and
// deadlines come from ctx. A KindError response is surfaced as *RemoteError.
func (c *Context) Call(ctx context.Context, dst wire.Addr, obj wire.ObjectID, kind wire.Kind, flags uint16, payload []byte) (*wire.Frame, error) {
	id, ch, err := c.NewPending()
	if err != nil {
		return nil, err
	}
	defer c.CancelPending(id, ch)
	f := wire.GetFrame()
	f.Kind = kind
	f.Flags = flags &^ wire.FlagResponse
	f.ReqID = id
	f.Dst = dst
	f.Object = obj
	f.Payload = payload
	err = c.Send(f)
	f.Release() // transports copy before Send returns
	if err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		if resp == nil {
			return nil, ErrClosed
		}
		if resp.Kind == wire.KindError {
			return nil, RemoteErrorFrom(resp)
		}
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// failPending wakes every pending call with a nil frame, sent under the
// shard's lock like a response. closed is stored first: a NewPending that
// has not yet taken its shard lock refuses, one that has is woken here.
func (c *Context) failPending() {
	c.closed.Store(true)
	for i := range c.pending {
		s := &c.pending[i]
		s.mu.Lock()
		for id, ch := range s.m {
			ch <- nil
			delete(s.m, id)
		}
		s.mu.Unlock()
	}
}

// Respond answers a request frame with the given kind and payload. It is
// the one writer of the node's dedup table: the reply is committed under
// the identity dispatch looked the request up by, so a repeat is answered
// from the table. Kernel-level no-route, pushback and expired responses
// never pass here — they prove the request did not run.
func (c *Context) Respond(req *wire.Frame, kind wire.Kind, payload []byte) error {
	if sid, seq, _, ok := identity(req); ok {
		c.node.sessions.Commit(sid, seq, kind, kind == wire.KindError, payload)
	}
	return c.node.respond(c, req, kind, 0, payload)
}

// RespondError answers a request with a KindError response.
func (c *Context) RespondError(req *wire.Frame, payload []byte) error {
	return c.Respond(req, wire.KindError, payload)
}
