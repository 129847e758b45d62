package kernel

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/session"
	"repro/internal/wire"
)

// TestPrivatePayloadNeverRead: a service-private payload passes through
// the kernel unexamined whatever it opens with. Each leading byte below
// is the magic of an envelope field; F8 01 01 is also how
// wire.AppendObjAddr opens for node 248, and read as a session stamp it
// made the second of two distinct requests a replay of the first.
func TestPrivatePayloadNeverRead(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1, n2 := NewNode(ep1), NewNode(ep2)
	t.Cleanup(func() { n1.Close(); n2.Close() })
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	var runs atomic.Int64
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		runs.Add(1)
		_ = ktx.Respond(f, wire.KindCustom, f.Payload)
	}))

	for lead := byte(0xF5); lead <= 0xF8; lead++ {
		before := runs.Load()
		for _, tail := range []byte{'a', 'b'} {
			payload := []byte{lead, 0x01, 0x01, tail}
			resp, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindCustom, 0, payload)
			if err != nil {
				t.Fatalf("payload % x: %v", payload, err)
			}
			if string(resp.Payload) != string(payload) {
				t.Errorf("payload % x answered % x", payload, resp.Payload)
			}
		}
		if got := runs.Load() - before; got != 2 {
			t.Errorf("two distinct requests opening %#x ran the handler %d times, want 2", lead, got)
		}
	}
	// Each request is looked up under its transmission; none became the
	// session the payload bytes spell.
	if v, _ := n2.SessionTable().Peek(1, 1); v != session.Fresh {
		t.Errorf("payload bytes became dedup identity (1, 1): verdict %v", v)
	}
}

// TestAdmissionIgnoresPayloadBytes: a private payload that opens F7 01 —
// the priority field's magic and the high class — is admitted as the
// normal request it is: on a saturated node it waits in the queue.
func TestAdmissionIgnoresPayloadBytes(t *testing.T) {
	c1, c2, obj, started, release := saturatedPair(t, overload.Config{
		MinLimit: 1, MaxLimit: 1, InitialLimit: 1,
		QueueLimit: 1, QueueDeadline: time.Minute,
	}, nil)

	done := make(chan error, 2)
	call := func(payload []byte) {
		_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindCustom, 0, payload)
		done <- err
	}
	go call([]byte("x")) // occupies the slot
	<-started
	go call([]byte{0xF7, 0x01, 's', 'y', 'n', 'c'})
	select {
	case <-started:
		t.Fatal("a payload opening F7 01 bypassed the saturated limit as high priority")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	select {
	case <-started: // ran from the queue once the slot freed
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never ran after release")
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("call failed: %v", err)
		}
	}
}
