// Package netsim provides the message transports the system runs on: a
// simulated network with configurable per-link latency, bandwidth, jitter,
// loss and partitions (used by tests and benchmarks so every experiment's
// shape is reproducible on one machine), and a real TCP transport
// (tcp.go) for multi-process deployment.
//
// This substitutes for the 1986 paper's assumed LAN hardware: experiments
// sweep the link parameters instead of being pinned to a 10 Mb/s Ethernet.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/wire"
)

// Endpoint is a node's attachment to a network. Implementations route
// outbound frames by their destination node and surface inbound frames on
// Recv. Endpoints are safe for concurrent use.
type Endpoint interface {
	// Send transmits the frame toward f.Dst.Node. Delivery is best-effort
	// and asynchronous; an error means the frame was definitely not sent
	// (closed endpoint, unknown destination), not that it arrived.
	Send(f *wire.Frame) error
	// Recv returns the channel of inbound frames. The channel closes when
	// the endpoint is closed.
	Recv() <-chan *wire.Frame
	// LocalNode reports the node this endpoint belongs to.
	LocalNode() wire.NodeID
	// Close detaches the endpoint. Safe to call twice.
	Close() error
}

// Errors returned by network operations.
var (
	ErrClosed      = errors.New("netsim: endpoint closed")
	ErrUnknownNode = errors.New("netsim: unknown destination node")
	ErrDuplicate   = errors.New("netsim: node already attached")
	ErrNodeCrashed = errors.New("netsim: node crashed")
)

// LinkConfig describes one directed link's behaviour.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// BytesPerSecond throttles serialization; zero means infinite.
	BytesPerSecond int64
	// LossRate drops frames with this probability in [0, 1).
	LossRate float64
}

func (lc LinkConfig) delay(size int, rng func(int64) int64, rfloat func() float64) (time.Duration, bool) {
	if lc.LossRate > 0 && rfloat() < lc.LossRate {
		return 0, false
	}
	d := lc.Latency
	if lc.Jitter > 0 {
		d += time.Duration(rng(int64(lc.Jitter)))
	}
	if lc.BytesPerSecond > 0 {
		d += time.Duration(int64(size) * int64(time.Second) / lc.BytesPerSecond)
	}
	return d, true
}

// LinkCond is a gray-failure condition layered ON TOP of a link's base
// LinkConfig: extra delay, extra loss, and byte corruption added to an
// otherwise-healthy link. Unlike SetLink, degradation composes with the
// base link and is removed with Restore, so a "slow but alive" node is
// scripted without knowing (or clobbering) the underlying link settings.
type LinkCond struct {
	// ExtraLatency is added to every frame's one-way delay.
	ExtraLatency time.Duration
	// ExtraJitter adds a further uniform random delay in [0, ExtraJitter).
	ExtraJitter time.Duration
	// LossRate drops frames with this additional probability in [0, 1).
	LossRate float64
	// CorruptRate garbles one byte of the frame's encoding with this
	// probability in [0, 1). A garbled frame travels the wire but fails
	// the receiver's CRC check and is discarded there (Stats.Corrupted),
	// so to the sender corruption looks exactly like loss.
	CorruptRate float64
}

// IsZero reports whether the condition degrades nothing.
func (c LinkCond) IsZero() bool {
	return c.ExtraLatency == 0 && c.ExtraJitter == 0 && c.LossRate == 0 && c.CorruptRate == 0
}

// Stats counts network activity. All counters are cumulative.
type Stats struct {
	Sent       uint64 // frames accepted by Send
	Delivered  uint64 // frames handed to a receiver
	Lost       uint64 // frames dropped by the loss model
	Partition  uint64 // frames dropped by a partition
	Overrun    uint64 // frames dropped because the receiver queue was full
	Crashed    uint64 // frames dropped because the destination node was down
	Corrupted  uint64 // frames garbled in flight and rejected by the receiver's CRC
	BytesMoved uint64 // payload+header bytes of delivered frames
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithDefaultLink sets the link configuration used for every pair of nodes
// that has no explicit override.
func WithDefaultLink(lc LinkConfig) NetworkOption {
	return func(n *Network) { n.defaultLink = lc }
}

// WithLocalLink sets the link configuration for same-node traffic
// (context-to-context on one machine). Default: zero latency, no loss.
func WithLocalLink(lc LinkConfig) NetworkOption {
	return func(n *Network) { n.localLink = lc }
}

// WithSeed seeds the loss/jitter RNG, making drop decisions reproducible.
func WithSeed(seed int64) NetworkOption {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithQueueDepth sets each endpoint's inbound buffer (default 1024 frames).
func WithQueueDepth(d int) NetworkOption {
	return func(n *Network) {
		if d > 0 {
			n.queueDepth = d
		}
	}
}

// Network is an in-process simulated network. Create with New, attach one
// endpoint per node, and exchange frames between them.
type Network struct {
	defaultLink LinkConfig
	localLink   LinkConfig
	queueDepth  int

	mu           sync.Mutex
	rng          *rand.Rand
	endpoints    map[wire.NodeID]*simEndpoint
	links        map[[2]wire.NodeID]LinkConfig
	partitioned  map[[2]wire.NodeID]bool
	degraded     map[[2]wire.NodeID]LinkCond
	nodeCond     map[wire.NodeID]LinkCond
	crashed      map[wire.NodeID]bool
	incarnations map[wire.NodeID]uint64
	queues       map[[2]wire.NodeID]*linkQueue
	stats        Stats
	closed       bool
}

// New creates a network with the given options. Without options the network
// is perfect: zero latency, infinite bandwidth, no loss.
func New(opts ...NetworkOption) *Network {
	n := &Network{
		queueDepth:   1024,
		rng:          rand.New(rand.NewSource(1)),
		endpoints:    make(map[wire.NodeID]*simEndpoint),
		links:        make(map[[2]wire.NodeID]LinkConfig),
		partitioned:  make(map[[2]wire.NodeID]bool),
		degraded:     make(map[[2]wire.NodeID]LinkCond),
		nodeCond:     make(map[wire.NodeID]LinkCond),
		crashed:      make(map[wire.NodeID]bool),
		incarnations: make(map[wire.NodeID]uint64),
		queues:       make(map[[2]wire.NodeID]*linkQueue),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Attach joins a node to the network and returns its endpoint.
func (n *Network) Attach(node wire.NodeID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.endpoints[node]; ok {
		return nil, fmt.Errorf("%w: %d", ErrDuplicate, node)
	}
	ep := &simEndpoint{
		net:  n,
		node: node,
		recv: make(chan *wire.Frame, n.queueDepth),
	}
	n.endpoints[node] = ep
	if n.incarnations[node] == 0 {
		n.incarnations[node] = 1
	}
	return ep, nil
}

// Crash takes a node down. The node's endpoint stops receiving (already
// queued inbound frames drop) and every Send from it fails with
// ErrNodeCrashed; frames addressed to it are silently dropped, exactly as a
// powered-off machine looks to its peers. The endpoint itself stays
// attached so Restart can bring the node back (fail-recover model: the
// simulation approximates a reboot that keeps durable state).
func (n *Network) Crash(node wire.NodeID) {
	n.mu.Lock()
	if n.crashed[node] {
		n.mu.Unlock()
		return
	}
	n.crashed[node] = true
	ep := n.endpoints[node]
	n.mu.Unlock()
	if ep == nil {
		return
	}
	// Drop frames that arrived before the crash but were never consumed:
	// they are the "queued frames" a real crash loses.
	for {
		select {
		case _, ok := <-ep.recv:
			if !ok {
				return
			}
		default:
			return
		}
	}
}

// Restart brings a crashed node back with a new incarnation number. Frames
// sent to it after Restart deliver normally again.
func (n *Network) Restart(node wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.crashed[node] {
		return
	}
	delete(n.crashed, node)
	n.incarnations[node]++
}

// Crashed reports whether the node is currently down.
func (n *Network) Crashed(node wire.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[node]
}

// Incarnation reports how many times the node has come up: 1 after Attach,
// incremented by every Restart. Zero means the node was never attached.
func (n *Network) Incarnation(node wire.NodeID) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.incarnations[node]
}

// SetLink overrides the directed link from a to b. Use twice for symmetry.
func (n *Network) SetLink(from, to wire.NodeID, lc LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]wire.NodeID{from, to}] = lc
}

// Partition blocks all traffic between a and b (both directions) until
// Heal is called.
func (n *Network) Partition(a, b wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[[2]wire.NodeID{a, b}] = true
	n.partitioned[[2]wire.NodeID{b, a}] = true
}

// PartitionOneWay blocks traffic from→to only: frames the other way still
// deliver. This is the asymmetric (gray) partition — from's calls to to
// all time out while to can keep talking to from — until Heal(from, to)
// removes it. A one-way cut on top of an existing two-way partition
// narrows nothing; Heal always clears both directions.
func (n *Network) PartitionOneWay(from, to wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[[2]wire.NodeID{from, to}] = true
}

// Heal removes a partition between a and b (either or both directions).
func (n *Network) Heal(a, b wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, [2]wire.NodeID{a, b})
	delete(n.partitioned, [2]wire.NodeID{b, a})
}

// Degrade layers a gray-failure condition on the a↔b link, both
// directions, on top of whatever the base link config is. Calling it
// again replaces the previous condition; Restore removes it.
func (n *Network) Degrade(a, b wire.NodeID, cond LinkCond) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.degraded[[2]wire.NodeID{a, b}] = cond
	n.degraded[[2]wire.NodeID{b, a}] = cond
}

// DegradeOneWay layers a condition on the directed from→to link only —
// the asymmetric half of the gray-failure model (slow or lossy in one
// direction, clean in the other).
func (n *Network) DegradeOneWay(from, to wire.NodeID, cond LinkCond) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.degraded[[2]wire.NodeID{from, to}] = cond
}

// Restore clears any degradation on the a↔b link (both directions).
func (n *Network) Restore(a, b wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.degraded, [2]wire.NodeID{a, b})
	delete(n.degraded, [2]wire.NodeID{b, a})
}

// DegradeNode layers a condition on every link touching the node, in
// both directions — the "one slow machine" scenario: every peer sees the
// node's traffic degrade without any per-pair scripting.
func (n *Network) DegradeNode(node wire.NodeID, cond LinkCond) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodeCond[node] = cond
}

// RestoreNode clears a node-wide degradation.
func (n *Network) RestoreNode(node wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodeCond, node)
}

// Snapshot returns the current counters.
func (n *Network) Snapshot() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts the whole network down, closing every endpoint.
func (n *Network) Close() {
	n.mu.Lock()
	eps := make([]*simEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
}

func (n *Network) linkFor(from, to wire.NodeID) LinkConfig {
	if from == to {
		return n.localLink
	}
	if lc, ok := n.links[[2]wire.NodeID{from, to}]; ok {
		return lc
	}
	return n.defaultLink
}

// send routes one frame. The caller still owns f; the network clones it
// only once the frame survives the drop models, so lost frames cost no
// copy and senders may recycle their frame as soon as Send returns.
func (n *Network) send(from wire.NodeID, f *wire.Frame) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.crashed[from] {
		n.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNodeCrashed, from)
	}
	dst, ok := n.endpoints[f.Dst.Node]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownNode, f.Dst.Node)
	}
	n.stats.Sent++
	if n.partitioned[[2]wire.NodeID{from, f.Dst.Node}] {
		n.stats.Partition++
		n.mu.Unlock()
		return nil // silently dropped: partitions look like loss to senders
	}
	if n.crashed[f.Dst.Node] {
		n.stats.Crashed++
		n.mu.Unlock()
		return nil // like a partition: the sender cannot tell
	}
	lc := n.linkFor(from, f.Dst.Node)
	delay, delivered := lc.delay(f.EncodedLen(),
		func(m int64) int64 { return n.rng.Int63n(m) },
		n.rng.Float64)
	if !delivered {
		n.stats.Lost++
		n.mu.Unlock()
		return nil
	}
	// Layer gray-failure conditions on top of the base link: the directed
	// pair's degradation plus any node-wide condition at either end. Each
	// applies its own loss/corruption draw and delay penalty.
	corrupt := false
	for _, cond := range [3]LinkCond{
		n.degraded[[2]wire.NodeID{from, f.Dst.Node}],
		n.nodeCond[from],
		n.nodeCond[f.Dst.Node],
	} {
		if cond.IsZero() {
			continue
		}
		if cond.LossRate > 0 && n.rng.Float64() < cond.LossRate {
			n.stats.Lost++
			n.mu.Unlock()
			return nil
		}
		if cond.CorruptRate > 0 && n.rng.Float64() < cond.CorruptRate {
			corrupt = true
		}
		delay += cond.ExtraLatency
		if cond.ExtraJitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(cond.ExtraJitter)))
		}
	}
	var flipByte, flipBit int
	if corrupt {
		flipByte = n.rng.Intn(f.EncodedLen())
		flipBit = n.rng.Intn(8)
	}
	q := n.queueFor(from, f.Dst.Node)
	n.mu.Unlock()

	if corrupt {
		// Garble the frame exactly as a receiver would see it: encode,
		// flip one bit in flight, re-parse. The CRC trailer rejects the
		// damage (any single-bit error is detected), so the frame is
		// counted and dropped here — to the sender this is loss, and the
		// rpc layer's retransmission is what heals it. Decode is still
		// attempted so a framing bug that silently accepted a garbled
		// frame would surface as a delivery, not stay hidden.
		buf, err := f.Encode(make([]byte, 0, f.EncodedLen()))
		if err == nil {
			buf[flipByte] ^= 1 << flipBit
			g, _, err := wire.Decode(buf)
			if err != nil {
				n.mu.Lock()
				n.stats.Corrupted++
				n.mu.Unlock()
				return nil
			}
			q.enqueue(dst, &g, delay)
			return nil
		}
	}

	// The frame survived the drop models: clone now so the network owns
	// its copy and the sender's (possibly pooled) frame is free again.
	c := f.Clone()

	// Lock order is q.mu → dst.mu → n.mu; send holds none of them here.
	q.enqueue(dst, &c, delay)
	return nil
}

// queueFor returns the FIFO queue for the directed link; n.mu must be held.
func (n *Network) queueFor(from, to wire.NodeID) *linkQueue {
	key := [2]wire.NodeID{from, to}
	q, ok := n.queues[key]
	if !ok {
		q = &linkQueue{net: n}
		n.queues[key] = q
	}
	return q
}

func (n *Network) deliver(dst *simEndpoint, f *wire.Frame) {
	n.mu.Lock()
	if n.crashed[dst.node] {
		n.stats.Crashed++
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		return
	}
	// Measured before the hand-off: once in dst.recv the frame is the
	// receiver's, which may release it (a reply, once decoded).
	size := uint64(f.EncodedLen())
	select {
	case dst.recv <- f:
		dst.mu.Unlock()
		n.mu.Lock()
		n.stats.Delivered++
		n.stats.BytesMoved += size
		n.mu.Unlock()
	default:
		dst.mu.Unlock()
		n.mu.Lock()
		n.stats.Overrun++
		n.mu.Unlock()
	}
}

// linkQueue serializes deliveries on one directed link. Each frame's delay
// decides its due time, but a frame never overtakes the one ahead of it:
// due times are clamped to be monotonic (FIFO with head-of-line blocking),
// matching how a real point-to-point link behaves. Without this, two frames
// with independent jitter each riding a private timer could arrive
// reversed.
type linkQueue struct {
	net *Network

	mu      sync.Mutex
	items   []queuedFrame
	lastDue time.Time
	armed   bool
	timer   *time.Timer
}

type queuedFrame struct {
	dst *simEndpoint
	f   *wire.Frame
	due time.Time
}

func (q *linkQueue) enqueue(dst *simEndpoint, f *wire.Frame, delay time.Duration) {
	q.mu.Lock()
	now := time.Now()
	due := now.Add(delay)
	if due.Before(q.lastDue) {
		due = q.lastDue
	}
	q.lastDue = due
	if !q.armed && len(q.items) == 0 && !due.After(now) {
		// Fast path: link idle and the frame is already due. Delivering
		// under q.mu keeps it ordered against a concurrent enqueue.
		q.net.deliver(dst, f)
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, queuedFrame{dst: dst, f: f, due: due})
	if !q.armed {
		q.armed = true
		q.arm(time.Until(due))
	}
	q.mu.Unlock()
}

// arm schedules pop; q.mu must be held.
func (q *linkQueue) arm(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if q.timer == nil {
		q.timer = time.AfterFunc(d, q.pop)
	} else {
		q.timer.Reset(d)
	}
}

// pop delivers every due frame in order, one at a time, then re-arms for
// the next one. Delivery happens under q.mu: that is what serializes the
// link.
func (q *linkQueue) pop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) > 0 {
		head := q.items[0]
		if wait := time.Until(head.due); wait > 0 {
			q.arm(wait)
			return
		}
		q.items = q.items[1:]
		q.net.deliver(head.dst, head.f)
	}
	q.items = nil
	q.armed = false
}

type simEndpoint struct {
	net  *Network
	node wire.NodeID

	mu     sync.Mutex
	closed bool
	recv   chan *wire.Frame
}

func (e *simEndpoint) Send(f *wire.Frame) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()
	// send clones once the frame survives the drop models; the caller's
	// frame and payload may be recycled as soon as this returns.
	return e.net.send(e.node, f)
}

func (e *simEndpoint) Recv() <-chan *wire.Frame { return e.recv }

func (e *simEndpoint) LocalNode() wire.NodeID { return e.node }

func (e *simEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.recv)
	e.mu.Unlock()

	e.net.mu.Lock()
	delete(e.net.endpoints, e.node)
	e.net.mu.Unlock()
	return nil
}
