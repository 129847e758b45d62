package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wire"
)

func frameTo(src, dst wire.NodeID, payload string) *wire.Frame {
	return &wire.Frame{
		Kind:    wire.KindRequest,
		ReqID:   1,
		Src:     wire.Addr{Node: src, Context: 1},
		Dst:     wire.Addr{Node: dst, Context: 1},
		Object:  1,
		Payload: []byte(payload),
	}
}

func recvWithin(t *testing.T, ep Endpoint, d time.Duration) *wire.Frame {
	t.Helper()
	select {
	case f, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return f
	case <-time.After(d):
		t.Fatal("timed out waiting for frame")
		return nil
	}
}

func TestPerfectDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	a, err := n.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(frameTo(1, 2, "hello")); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, b, time.Second)
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Src.Node != 1 {
		t.Errorf("src node = %d", got.Src.Node)
	}
}

// TestPooledReplySimHandOff hands every delivered frame straight to a
// receiver that overwrites it, as a stub releasing a decoded reply does:
// once a frame is in the receiver's queue the network must not read it,
// which the race detector checks.
func TestPooledReplySimHandOff(t *testing.T) {
	n := New()
	defer n.Close()
	a, err := n.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			f := <-b.Recv()
			f.Release()
		}
	}()
	for i := 0; i < frames; i++ {
		f := frameTo(1, 2, "reply")
		f.Flags = wire.FlagResponse
		if err := a.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frames lost")
	}
}

func TestSendClonesFrame(t *testing.T) {
	n := New(WithDefaultLink(LinkConfig{Latency: 5 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	f := frameTo(1, 2, "immutable")
	if err := a.Send(f); err != nil {
		t.Fatal(err)
	}
	f.Payload[0] = 'X' // mutate after send; receiver must not see it
	got := recvWithin(t, b, time.Second)
	if string(got.Payload) != "immutable" {
		t.Errorf("payload = %q, want %q", got.Payload, "immutable")
	}
}

func TestUnknownDestination(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach(1)
	if err := a.Send(frameTo(1, 99, "x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Send = %v, want ErrUnknownNode", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	n := New()
	defer n.Close()
	if _, err := n.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach(1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("second Attach = %v, want ErrDuplicate", err)
	}
}

func TestLatencyApplied(t *testing.T) {
	const lat = 30 * time.Millisecond
	n := New(WithDefaultLink(LinkConfig{Latency: lat}))
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	start := time.Now()
	if err := a.Send(frameTo(1, 2, "x")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	if got := time.Since(start); got < lat {
		t.Errorf("delivered after %v, want >= %v", got, lat)
	}
}

func TestBandwidthDelaysLargeFrames(t *testing.T) {
	// 1 MiB/s: a 100 KiB payload should take ~100 ms.
	n := New(WithDefaultLink(LinkConfig{BytesPerSecond: 1 << 20}))
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	big := frameTo(1, 2, string(make([]byte, 100<<10)))
	start := time.Now()
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, 2*time.Second)
	if got := time.Since(start); got < 50*time.Millisecond {
		t.Errorf("100KiB over 1MiB/s delivered in %v, want >= 50ms", got)
	}
}

func TestTotalLossDropsEverything(t *testing.T) {
	n := New(WithDefaultLink(LinkConfig{LossRate: 0.9999999}), WithSeed(7))
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	for i := 0; i < 50; i++ {
		if err := a.Send(frameTo(1, 2, "x")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-b.Recv():
		t.Error("frame survived a ~100% loss link")
	case <-time.After(50 * time.Millisecond):
	}
	st := n.Snapshot()
	if st.Lost != 50 {
		t.Errorf("Lost = %d, want 50", st.Lost)
	}
}

func TestLossRateRoughlyHonored(t *testing.T) {
	n := New(WithDefaultLink(LinkConfig{LossRate: 0.5}), WithSeed(42))
	defer n.Close()
	a, _ := n.Attach(1)
	_, _ = n.Attach(2)
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send(frameTo(1, 2, "x")); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Snapshot()
	if st.Lost < total/3 || st.Lost > 2*total/3 {
		t.Errorf("Lost = %d of %d at p=0.5", st.Lost, total)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	n.Partition(1, 2)
	if err := a.Send(frameTo(1, 2, "lost")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Fatal("frame crossed a partition")
	case <-time.After(30 * time.Millisecond):
	}
	if st := n.Snapshot(); st.Partition != 1 {
		t.Errorf("Partition drops = %d, want 1", st.Partition)
	}
	n.Heal(1, 2)
	if err := a.Send(frameTo(1, 2, "through")); err != nil {
		t.Fatal(err)
	}
	got := recvWithin(t, b, time.Second)
	if string(got.Payload) != "through" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestPartitionIsBidirectional(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	n.Partition(1, 2)
	_ = b.Send(frameTo(2, 1, "reverse"))
	select {
	case <-a.Recv():
		t.Error("reverse direction crossed the partition")
	case <-time.After(30 * time.Millisecond):
	}
}

func TestPerLinkOverride(t *testing.T) {
	n := New(WithDefaultLink(LinkConfig{Latency: 200 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	n.SetLink(1, 2, LinkConfig{}) // fast path override
	start := time.Now()
	if err := a.Send(frameTo(1, 2, "x")); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, b, time.Second)
	if got := time.Since(start); got > 100*time.Millisecond {
		t.Errorf("override link took %v, want fast", got)
	}
}

func TestLocalLinkIsSeparate(t *testing.T) {
	n := New(WithDefaultLink(LinkConfig{Latency: 200 * time.Millisecond}))
	defer n.Close()
	a, _ := n.Attach(1)
	start := time.Now()
	// Same-node traffic (context to context) uses the local link: fast.
	f := frameTo(1, 1, "local")
	f.Dst.Context = 2
	if err := a.Send(f); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, a, time.Second)
	if got := time.Since(start); got > 100*time.Millisecond {
		t.Errorf("local delivery took %v", got)
	}
}

func TestCloseEndpoint(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
	if _, ok := <-b.Recv(); ok {
		t.Error("recv channel still open after Close")
	}
	// Node 2 is gone; sends to it now fail.
	if err := a.Send(frameTo(1, 2, "x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Send to closed = %v, want ErrUnknownNode", err)
	}
	if err := b.Send(frameTo(2, 1, "x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send from closed = %v, want ErrClosed", err)
	}
}

func TestNetworkClose(t *testing.T) {
	n := New()
	a, _ := n.Attach(1)
	n.Close()
	if err := a.Send(frameTo(1, 1, "x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after network Close = %v", err)
	}
	if _, err := n.Attach(3); !errors.Is(err, ErrClosed) {
		t.Errorf("Attach after Close = %v", err)
	}
}

func TestQueueOverrun(t *testing.T) {
	n := New(WithQueueDepth(4))
	defer n.Close()
	a, _ := n.Attach(1)
	_, _ = n.Attach(2)
	for i := 0; i < 20; i++ {
		if err := a.Send(frameTo(1, 2, "x")); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Snapshot()
	if st.Overrun == 0 {
		t.Error("no overruns recorded with tiny queue")
	}
	if st.Delivered+st.Overrun != 20 {
		t.Errorf("delivered %d + overrun %d != 20", st.Delivered, st.Overrun)
	}
}

func TestStatsBytesMoved(t *testing.T) {
	n := New()
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	f := frameTo(1, 2, "12345")
	want := uint64(f.EncodedLen())
	_ = a.Send(f)
	recvWithin(t, b, time.Second)
	if st := n.Snapshot(); st.BytesMoved != want {
		t.Errorf("BytesMoved = %d, want %d", st.BytesMoved, want)
	}
}

func TestSeedReproducible(t *testing.T) {
	run := func() uint64 {
		n := New(WithDefaultLink(LinkConfig{LossRate: 0.3}), WithSeed(99))
		defer n.Close()
		a, _ := n.Attach(1)
		_, _ = n.Attach(2)
		for i := 0; i < 500; i++ {
			_ = a.Send(frameTo(1, 2, "x"))
		}
		return n.Snapshot().Lost
	}
	if first, second := run(), run(); first != second {
		t.Errorf("same seed produced %d then %d losses", first, second)
	}
}

func BenchmarkSimSendRecv(b *testing.B) {
	n := New()
	defer n.Close()
	a, _ := n.Attach(1)
	bb, _ := n.Attach(2)
	f := frameTo(1, 2, "payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(f); err != nil {
			b.Fatal(err)
		}
		<-bb.Recv()
	}
}

func TestJitterBoundsDelay(t *testing.T) {
	const lat, jit = 10 * time.Millisecond, 20 * time.Millisecond
	n := New(WithDefaultLink(LinkConfig{Latency: lat, Jitter: jit}), WithSeed(5))
	defer n.Close()
	a, _ := n.Attach(1)
	b, _ := n.Attach(2)
	var min, max time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := a.Send(frameTo(1, 2, "j")); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, b, time.Second)
		d := time.Since(start)
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min < lat {
		t.Errorf("min delay %v below base latency %v", min, lat)
	}
	// With 20 samples over a 20ms jitter window, the spread should be
	// clearly visible (well over the scheduler noise floor).
	if max-min < 2*time.Millisecond {
		t.Errorf("jitter produced no spread: min=%v max=%v", min, max)
	}
}
