package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wire"
)

// tcpPair starts two TCP endpoints that know each other's addresses.
func tcpPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
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
