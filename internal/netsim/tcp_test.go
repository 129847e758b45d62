package netsim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// tcpPair starts two TCP endpoints that know each other's addresses.
func tcpPair(t testing.TB) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP(2, "127.0.0.1:0", map[wire.NodeID]string{1: a.ListenAddr()})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	// a learns b's address after the fact via a fresh endpoint table; for
	// tests we rebuild a with the full table instead.
	a.Close()
	a2, err := ListenTCP(1, "127.0.0.1:0", map[wire.NodeID]string{2: b.ListenAddr()})
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	// b must know a2's new address.
	b.mu.Lock()
	b.peers[1] = a2.ListenAddr()
	b.mu.Unlock()
	t.Cleanup(func() { a2.Close(); b.Close() })
	return a2, b
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send(frameTo(1, 2, "over tcp")); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, b, 2*time.Second)
	if string(got.Payload) != "over tcp" {
		t.Errorf("payload = %q", got.Payload)
	}
	// And the reverse direction (separate dialed connection).
	if err := b.Send(frameTo(2, 1, "reply")); err != nil {
		t.Fatal(err)
	}
	got = recvWithin(t, a, 2*time.Second)
	if string(got.Payload) != "reply" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestTCPLoopback(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	f := frameTo(1, 1, "loop")
	f.Dst.Context = 2
	if err := a.Send(f); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, a, time.Second)
	if string(got.Payload) != "loop" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(frameTo(1, 9, "x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Send = %v, want ErrUnknownNode", err)
	}
}

func TestTCPManyFrames(t *testing.T) {
	a, b := tcpPair(t)
	const count = 200
	for i := 0; i < count; i++ {
		f := frameTo(1, 2, "bulk")
		f.ReqID = uint64(i)
		if err := a.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	for i := 0; i < count; i++ {
		f := recvWithin(t, b, 2*time.Second)
		seen[f.ReqID] = true
	}
	if len(seen) != count {
		t.Errorf("received %d distinct frames, want %d", len(seen), count)
	}
}

// senderPayload is frame i of sender s in TestTCPConcurrentSenders: mostly
// small, every 25th at least bigFrame, its bytes a function of (s, i).
func senderPayload(s, i int) []byte {
	n := 1 + i*37%200
	if i%25 == 0 {
		n = bigFrame + i
	}
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(s*31 + i + j*7)
	}
	return p
}

func TestTCPConcurrentSenders(t *testing.T) {
	// Many goroutines share one connection: every frame arrives once and
	// intact, in its sender's order, and once the peer is gone every Send
	// reports an error of its own.
	concurrentSenders(t, 0)
}

// TestPooledReplyTCPConcurrentSenders sends the same frames as responses:
// each is read into a pooled reply frame and released once checked, so
// later frames reuse the buffers of earlier ones, small and large alike.
func TestPooledReplyTCPConcurrentSenders(t *testing.T) { concurrentSenders(t, wire.FlagResponse) }

func concurrentSenders(t *testing.T, flags uint16) {
	a, b := tcpPair(t)
	const senders, perSender = 8, 500
	// Tokens keep the frames in flight below b's receive queue, which
	// would otherwise drop (and count) the excess.
	tokens := make(chan struct{}, cap(b.recv)/2)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				tokens <- struct{}{}
				f := frameTo(1, 2, "")
				f.Flags = flags
				f.ReqID = uint64(s)<<32 | uint64(i)
				f.Payload = senderPayload(s, i)
				if err := a.Send(f); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}()
	}
	var next [senders]int
	for n := 0; n < senders*perSender; n++ {
		f := recvWithin(t, b, 5*time.Second)
		s, i := int(f.ReqID>>32), int(uint32(f.ReqID))
		if s >= senders {
			t.Fatalf("frame from unknown sender %d", s)
		}
		if i != next[s] {
			t.Fatalf("frame %d of sender %d arrived, want frame %d", i, s, next[s])
		}
		if !bytes.Equal(f.Payload, senderPayload(s, i)) {
			t.Fatalf("sender %d frame %d: payload of %d bytes damaged", s, i, len(f.Payload))
		}
		if flags&wire.FlagResponse != 0 {
			f.Release()
		}
		next[s]++
		<-tokens
	}
	wg.Wait()
	select {
	case f := <-b.Recv():
		t.Fatalf("extra frame %x after every frame arrived", f.ReqID)
	case <-time.After(50 * time.Millisecond):
	}
	if n := b.RecvOverruns(); n != 0 {
		t.Fatalf("%d frames overran the receive queue", n)
	}

	// Close the peer and wait for a's reader to hang its end up.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		a.mu.Lock()
		live := len(a.live)
		a.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a's connection still open 2s after the peer closed")
		}
		time.Sleep(time.Millisecond)
	}
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := a.Send(frameTo(1, 2, "into the void")); err == nil {
					t.Errorf("sender %d: Send %d after the peer closed returned nil", s, i)
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if err := a.Send(frameTo(1, 1, "x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v", err)
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t)
	if err := a.Send(frameTo(1, 2, "first")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, 2*time.Second)

	// Restart the peer on the same address: every connection a cached is
	// now dead, so a must redial.
	addr := b.ListenAddr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := ListenTCP(2, addr, map[wire.NodeID]string{1: a.ListenAddr()})
	if err != nil {
		t.Fatalf("restart listener on %s: %v", addr, err)
	}
	defer b2.Close()

	// a's cached connection is broken. A send into the dead socket can
	// even "succeed" locally (TCP buffering) before the breakage is
	// detected, so — like the rpc layer above this transport — we must
	// retransmit until the frame actually arrives.
	deadline := time.Now().Add(4 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived after peer restart")
		}
		_ = a.Send(frameTo(1, 2, "second")) // errors trigger the redial path
		select {
		case f, ok := <-b2.Recv():
			if ok && string(f.Payload) == "second" {
				return
			}
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestTCPRecvOverrunsCounted(t *testing.T) {
	// Nobody drains b.Recv(), as when the node's pump is blocked on the
	// dispatch limit: the queue fills and every further frame is dropped —
	// and counted, on the socket path and on the loopback path alike.
	a, b := tcpPair(t)
	const extra = 25
	for i := 0; i < cap(b.recv)+extra; i++ {
		if err := a.Send(frameTo(1, 2, "x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.RecvOverruns() < extra {
		if time.Now().After(deadline) {
			t.Fatalf("overruns = %d after %d frames into a queue of %d, want %d", b.RecvOverruns(), cap(b.recv)+extra, cap(b.recv), extra)
		}
		time.Sleep(time.Millisecond)
	}
	if got := b.RecvOverruns(); got != extra {
		t.Errorf("overruns = %d, want %d", got, extra)
	}
	if len(b.recv) != cap(b.recv) {
		t.Errorf("queue holds %d of %d frames", len(b.recv), cap(b.recv))
	}
	if err := b.Send(frameTo(2, 2, "loop")); err != nil {
		t.Fatal(err)
	}
	if got := b.RecvOverruns(); got != extra+1 {
		t.Errorf("overruns after a loopback send into the full queue = %d, want %d", got, extra+1)
	}
	if a.RecvOverruns() != 0 {
		t.Errorf("sender counted %d overruns of its own", a.RecvOverruns())
	}
}

func TestTCPCloseWithUnroutedConnections(t *testing.T) {
	// A readLoop runs for every accepted connection, but one that never
	// taught a route — a port probe that says nothing, a peer whose frames
	// name no source node — is in no routing table: Close must reach it
	// anyway, not wait for the peer to hang up.
	e, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", e.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	anon, err := net.Dial("tcp", e.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	// Connections are accepted in order: once anon's frame is here, both
	// have their readers.
	if _, err := anon.Write(encoded(t, frameTo(0, 1, "from nobody"))); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, e, 2*time.Second)
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked after 2s on connections that taught no route")
	}
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Error("the silent connection is still open after Close")
	}
}

func TestTCPOversizedFrameLeavesConnection(t *testing.T) {
	// A frame that will not encode is the caller's error, not the
	// socket's: the route — dialed on a, learned on b — must survive it.
	a, b := tcpPair(t)
	if err := a.Send(frameTo(1, 2, "hello")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, 2*time.Second)
	huge := string(make([]byte, wire.MaxPayload+1))
	for _, c := range []struct {
		name     string
		from, to *TCPEndpoint
		learned  bool
	}{{"dialed", a, b, false}, {"learned", b, a, true}} {
		src, dst := c.from.LocalNode(), c.to.LocalNode()
		c.from.mu.Lock()
		before := c.from.conns[dst]
		c.from.mu.Unlock()
		if before == nil || before.learned != c.learned {
			t.Fatalf("%s: route before = %+v", c.name, before)
		}
		if err := c.from.Send(frameTo(src, dst, huge)); !errors.Is(err, wire.ErrTooLarge) {
			t.Fatalf("%s: oversized Send = %v, want ErrTooLarge", c.name, err)
		}
		if err := c.from.Send(frameTo(src, dst, "after")); err != nil {
			t.Fatalf("%s: Send after the oversized frame: %v", c.name, err)
		}
		if got := recvWithin(t, c.to, 2*time.Second); string(got.Payload) != "after" {
			t.Errorf("%s: payload = %q", c.name, got.Payload)
		}
		c.from.mu.Lock()
		after := c.from.conns[dst]
		c.from.mu.Unlock()
		if after != before {
			t.Errorf("%s: the oversized frame cost the connection (route %p → %p)", c.name, before, after)
		}
	}
}

// readerPair returns the write end of a loopback TCP connection and the
// reader readLoop would read its other end through, with the endpoint
// that reader counts on.
func readerPair(t *testing.T) (net.Conn, io.Reader, *TCPEndpoint) {
	t.Helper()
	w, c := connPair(t)
	e := &TCPEndpoint{}
	return w, e.reader(c), e
}

// connPair returns the two ends of a loopback TCP connection.
func connPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close(); unwatch(c); c.Close() })
	return w, c
}

func encoded(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	b, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTCPReaderReassemblesSplitFrame(t *testing.T) {
	w, r, _ := readerPair(t)
	br := bufio.NewReaderSize(r, readBufSize)
	raw := encoded(t, frameTo(1, 2, "split across two writes"))
	for _, cut := range []int{10, len(raw) - 3} { // inside the header, inside the trailer
		go func() {
			w.Write(raw[:cut])
			time.Sleep(5 * time.Millisecond)
			w.Write(raw[cut:])
		}()
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if string(f.Payload) != "split across two writes" {
			t.Errorf("cut at %d: payload = %q", cut, f.Payload)
		}
	}
}

func TestTCPReaderPeerClose(t *testing.T) {
	raw := encoded(t, frameTo(1, 2, "last words"))
	for _, c := range []struct {
		name string
		tail int // bytes of a second frame written before the close
		want error
	}{
		{"between frames", 0, io.EOF},
		{"inside a header", 10, io.ErrUnexpectedEOF},
		{"inside a body", len(raw) - 3, io.ErrUnexpectedEOF},
	} {
		w, r, _ := readerPair(t)
		br := bufio.NewReaderSize(r, readBufSize)
		w.Write(raw)
		w.Write(raw[:c.tail])
		w.Close()
		if f, err := wire.ReadFrame(br); err != nil || string(f.Payload) != "last words" {
			t.Fatalf("%s: first frame = %q, %v", c.name, f.Payload, err)
		}
		if _, err := wire.ReadFrame(br); err != c.want {
			t.Errorf("%s: ReadFrame after the peer closed = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestTCPReaderReadAllocs(t *testing.T) {
	w, r, _ := readerPair(t)
	kick := make(chan struct{})
	defer close(kick)
	one := []byte{'x'}
	go func() {
		for range kick {
			w.Write(one)
		}
	}()
	buf := make([]byte, 16)
	allocs := testing.AllocsPerRun(200, func() {
		kick <- struct{}{}
		if n, err := r.Read(buf); n != 1 || err != nil {
			t.Errorf("Read = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Read allocates %.1f times a call, want 0", allocs)
	}
}

// echo answers every frame e receives with a reply-sized frame, until e
// is closed.
func echo(e *TCPEndpoint) {
	res := make([]byte, 16)
	for f := range e.Recv() {
		e.Send(&wire.Frame{Kind: wire.KindReply, Flags: wire.FlagResponse, ReqID: f.ReqID, Src: f.Dst, Dst: f.Src, Payload: res})
	}
}

func TestTCPClosePollingEndpoint(t *testing.T) {
	// Close reaches a reader that is polling when its probe gives up,
	// within one pollBound; it must not wait for the peer to speak.
	// (TestTCPReaderCloseWhilePolling pins a reader in its poll first.)
	a, b := tcpPair(t)
	go echo(b)
	for i := 0; i < 300; i++ { // back-to-back round trips make both readers hot
		if err := a.Send(frameTo(1, 2, "ping")); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, a, 2*time.Second)
	}
	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Millisecond {
		t.Errorf("Close took %v with a reader polling, want under 10ms", took)
	}
}

// BenchmarkTCPPingPong is the transport rung alone: two endpoints in one
// process, a request-sized frame out and a reply-sized one back, as the
// repository benchmark's ladder.netsim.tcp_rtt_ns. idle is the number of
// further connections to the server that say nothing: what a probe costs
// grows with the descriptors asleep in the process.
func BenchmarkTCPPingPong(b *testing.B) {
	for _, idle := range []int{0, 64} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			cli, srv := tcpPair(b)
			go echo(srv)
			for i := 0; i < idle; i++ {
				c, err := net.Dial("tcp", srv.ListenAddr())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
			}
			req := wire.Frame{Kind: wire.KindRequest, Object: 2, Payload: make([]byte, 48),
				Src: wire.Addr{Node: 1, Context: 1}, Dst: wire.Addr{Node: 2, Context: 1}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.ReqID++
				if err := cli.Send(&req); err != nil {
					b.Fatal(err)
				}
				if _, ok := <-cli.Recv(); !ok {
					b.Fatal("endpoint closed")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cli.RecvPolled()+srv.RecvPolled())/float64(2*b.N), "polled/read")
		})
	}
}
