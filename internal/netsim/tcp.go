package netsim

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// TCPEndpoint is an Endpoint over real TCP connections, for multi-process
// deployment (cmd/proxyd, cmd/proxyctl). Outbound routes come from a
// static peer table (dialed lazily and reused) and from *learned* return
// routes: when a frame arrives on an accepted connection, that connection
// becomes the route back to the frame's source node — so a client behind
// an unknown address (e.g. proxyctl listening on :0) can still receive
// replies.
type TCPEndpoint struct {
	node wire.NodeID
	ln   net.Listener
	recv chan *wire.Frame

	// closed is stored under mu (so route insertion and the loopback push
	// stay ordered against Close) and loaded without it on the per-frame
	// paths.
	closed   atomic.Bool
	overruns atomic.Uint64
	// Reads a polling reader satisfied without sleeping, and reads that slept.
	polled, parked atomic.Uint64
	lastBig        atomic.Int64 // when a bigFrame last moved, since processStart

	mu    sync.Mutex
	peers map[wire.NodeID]string
	conns map[wire.NodeID]*tcpConn
	live  map[net.Conn]struct{} // every connection a readLoop reads, routed or not
	wg    sync.WaitGroup
}

// tcpConn serializes writes: concurrent frame sends must not interleave
// partial writes on one socket. Each frame is one Write under the lock;
// batching is the coalescer's job (Coalesce), which already queues each
// destination's sends behind one emitter.
type tcpConn struct {
	c net.Conn
	// learned marks routes discovered from accepted connections; they are
	// evicted when their connection dies, while dialed routes redial.
	learned bool

	mu  sync.Mutex
	buf []byte // reused encode buffer
	err error  // sticky: once a write fails the conn is dead
}

// maxStagedBuf bounds how large the reused encode buffer may stay; a
// one-off giant frame is released to the GC instead of pinned forever.
const maxStagedBuf = 1 << 20

func (tc *tcpConn) writeFrame(f *wire.Frame) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.err != nil {
		return tc.err
	}
	buf, err := f.Encode(tc.buf[:0])
	if err != nil {
		return err
	}
	if cap(buf) <= maxStagedBuf {
		tc.buf = buf
	}
	if _, err := tc.c.Write(buf); err != nil {
		tc.err = err
		return err
	}
	return nil
}

// ListenTCP starts an endpoint for node listening on listenAddr. peers
// maps statically-known nodes to their addresses; other nodes become
// reachable once they send us a frame. The caller should defer Close.
func ListenTCP(node wire.NodeID, listenAddr string, peers map[wire.NodeID]string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %s: %w", listenAddr, err)
	}
	p := make(map[wire.NodeID]string, len(peers))
	for k, v := range peers {
		p[k] = v
	}
	e := &TCPEndpoint{
		node:  node,
		ln:    ln,
		peers: p,
		recv:  make(chan *wire.Frame, 1024),
		conns: make(map[wire.NodeID]*tcpConn),
		live:  make(map[net.Conn]struct{}),
	}
	watch(ln, nil)
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// ListenAddr reports the bound listen address (useful with ":0").
func (e *TCPEndpoint) ListenAddr() string { return e.ln.Addr().String() }

// AddPeer inserts or replaces a static peer route.
func (e *TCPEndpoint) AddPeer(node wire.NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[node] = addr
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		e.serve(conn, true)
		e.mu.Unlock()
	}
}

// serve starts conn's readLoop, or closes conn when the endpoint has
// closed. e.mu is held: Close finds every connection in live, or none is made.
func (e *TCPEndpoint) serve(conn net.Conn, accepted bool) bool {
	if e.closed.Load() {
		conn.Close()
		return false
	}
	e.live[conn] = struct{}{}
	e.wg.Add(1)
	go e.readLoop(conn, e.reader(conn), accepted)
	return true
}

// hangUp closes conn. Its descriptor leaves the watch list first: the
// kernel hands the number out again at once.
func (e *TCPEndpoint) hangUp(conn net.Conn) {
	e.mu.Lock()
	delete(e.live, conn)
	e.mu.Unlock()
	unwatch(conn)
	conn.Close()
}

// readBufSize is the per-connection read buffer: one read syscall drains
// everything the peer wrote (a train of small frames, or a whole 16 KiB
// payload with its header and trailer) instead of one syscall per frame
// header and another per body.
const readBufSize = 32 << 10

// pollBound is how long a hot connection's reader polls an empty socket
// before it parks: a write to a peer asleep in epoll pays a cross-CPU wake
// (≈ 14 µs against 4 to one that is awake). It must exceed the parked
// request/reply cycle (≈ 55 µs) or the two sides never fall into step;
// EXPERIMENTS.md, PR 20, has the sweep.
const pollBound = 100 * time.Microsecond

// bigFrame is the frame size that keeps an endpoint from polling for one
// bound after it moves one, in either direction. A polling reader never
// lets the process go idle, and idle time is what the Go collector finishes
// a cycle in: 16 KiB calls stretched mark phases from 0.5 to 14 ms.
const bigFrame = 8 << 10

// processStart is the origin of the monotonic time readers and lastBig keep.
var processStart = time.Now()

// readLoop pumps frames from one connection. accepted connections teach
// us return routes. Responses arrive in pooled frames (wire.ReadInbound),
// owned from here on by whoever receives them.
func (e *TCPEndpoint) readLoop(conn net.Conn, r io.Reader, accepted bool) {
	defer e.wg.Done()
	defer e.hangUp(conn)
	br := bufio.NewReaderSize(r, readBufSize)
	var tc *tcpConn
	for {
		f, err := wire.ReadInbound(br)
		if err != nil {
			break
		}
		if accepted && tc == nil && f.Src.Node != 0 && f.Src.Node != e.node {
			tc = e.learnRoute(f.Src.Node, conn)
		}
		if e.closed.Load() {
			break
		}
		e.deliver(f)
	}
	if tc != nil {
		e.forgetConn(tc)
	}
}

// deliver queues an inbound frame for the node's pump. A full queue
// drops (and recycles) the frame, as a congested switch would; every drop
// is counted (RecvOverruns), because a sender only learns of it by timing out.
func (e *TCPEndpoint) deliver(f *wire.Frame) {
	select {
	case e.recv <- f:
	default:
		e.overruns.Add(1)
		f.Release()
	}
}

// RecvOverruns reports how many inbound frames were dropped because the
// receive queue was full.
func (e *TCPEndpoint) RecvOverruns() uint64 { return e.overruns.Load() }

// RecvPolled reports how many socket reads a polling reader satisfied
// without sleeping in the netpoller, RecvParked how many slept there.
func (e *TCPEndpoint) RecvPolled() uint64 { return e.polled.Load() }
func (e *TCPEndpoint) RecvParked() uint64 { return e.parked.Load() }

// learnRoute records conn as the way back to node, unless a route exists.
func (e *TCPEndpoint) learnRoute(node wire.NodeID, conn net.Conn) *tcpConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil
	}
	if _, ok := e.conns[node]; ok {
		return nil
	}
	tc := &tcpConn{c: conn, learned: true}
	e.conns[node] = tc
	return tc
}

func (e *TCPEndpoint) forgetConn(tc *tcpConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for node, cur := range e.conns {
		if cur == tc {
			delete(e.conns, node)
		}
	}
}

// Send implements Endpoint. Frames to the local node loop back without
// touching the network.
func (e *TCPEndpoint) Send(f *wire.Frame) error {
	if f.Dst.Node == e.node {
		// Loopback under the lock, so Close cannot close recv mid-push.
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.closed.Load() {
			return ErrClosed
		}
		c := f.Clone()
		e.deliver(&c)
		return nil
	}
	tc, err := e.connTo(f.Dst.Node)
	if err != nil {
		return err
	}
	if len(f.Payload) >= bigFrame {
		e.lastBig.Store(int64(time.Since(processStart)))
	}
	if err := tc.writeFrame(f); err != nil {
		tc.mu.Lock()
		dead := tc.err != nil // not when f would not encode: nothing was written
		tc.mu.Unlock()
		// Connection is broken; forget it so the next send redials (or
		// waits for the peer to reconnect, for learned routes).
		e.mu.Lock()
		if dead && e.conns[f.Dst.Node] == tc {
			delete(e.conns, f.Dst.Node)
		}
		e.mu.Unlock()
		if dead {
			e.hangUp(tc.c)
		}
		return fmt.Errorf("netsim: send to node %d: %w", f.Dst.Node, err)
	}
	return nil
}

// connTo resolves the route to node — closed check and lookup in one lock
// acquisition — dialing when the peer is known but not yet connected.
func (e *TCPEndpoint) connTo(node wire.NodeID) (*tcpConn, error) {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if tc, ok := e.conns[node]; ok {
		e.mu.Unlock()
		return tc, nil
	}
	addr, ok := e.peers[node]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, node)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: dial node %d at %s: %w", node, addr, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if existing, ok := e.conns[node]; ok {
		// Lost a dial race; keep the first connection.
		conn.Close()
		return existing, nil
	}
	// Dialed connections also carry inbound traffic (the peer replies on
	// the same socket).
	if !e.serve(conn, false) {
		return nil, ErrClosed
	}
	tc := &tcpConn{c: conn}
	e.conns[node] = tc
	return tc, nil
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() <-chan *wire.Frame { return e.recv }

// LocalNode implements Endpoint.
func (e *TCPEndpoint) LocalNode() wire.NodeID { return e.node }

// Close implements Endpoint, closing the listener and all connections.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return nil
	}
	e.closed.Store(true)
	conns := make([]net.Conn, 0, len(e.live))
	for c := range e.live {
		conns = append(conns, c)
	}
	e.conns = map[wire.NodeID]*tcpConn{}
	e.mu.Unlock()

	unwatch(e.ln)
	err := e.ln.Close()
	for _, c := range conns {
		e.hangUp(c)
	}
	e.wg.Wait()
	close(e.recv)
	return err
}
