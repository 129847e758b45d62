package kernel

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/wire"
)

// saturatedPair builds a client and a server whose admission controller
// has one slot and a one-deep queue, plus a handler that parks until
// released. Submitting one call and waiting for started leaves the
// server saturated.
func saturatedPair(t *testing.T, cfg overload.Config, trace func(TraceDirection, *wire.Frame)) (c1, c2 *Context, obj wire.ObjectID, started, release chan struct{}) {
	t.Helper()
	net := netsim.New()
	t.Cleanup(net.Close)
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1 := NewNode(ep1)
	opts := []NodeOption{WithAdmission(overload.NewController(cfg, nil, ""))}
	if trace != nil {
		opts = append(opts, WithTrace(trace))
	}
	n2 := NewNode(ep2, opts...)
	t.Cleanup(func() { n1.Close(); n2.Close() })
	c1, _ = n1.NewContext()
	c2, _ = n2.NewContext()
	started = make(chan struct{}, 8)
	release = make(chan struct{})
	obj = c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		started <- struct{}{}
		<-release
		_ = ktx.Respond(f, wire.KindReply, f.Payload)
	}))
	return c1, c2, obj, started, release
}

// callEnveloped is Context.Call for a request that carries an envelope.
func callEnveloped(c *Context, dst wire.Addr, obj wire.ObjectID, kind wire.Kind, env wire.Envelope, payload []byte) (*wire.Frame, error) {
	id, ch, err := c.NewPending()
	if err != nil {
		return nil, err
	}
	defer c.CancelPending(id, ch)
	if err := c.Send(&wire.Frame{Kind: kind, ReqID: id, Dst: dst, Object: obj, Envelope: env, Payload: payload}); err != nil {
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
	case <-time.After(10 * time.Second):
		return nil, context.DeadlineExceeded
	}
}

func TestAdmissionShedsWithPushback(t *testing.T) {
	c1, c2, obj, started, release := saturatedPair(t, overload.Config{
		MinLimit: 1, MaxLimit: 1, InitialLimit: 1,
		QueueLimit: 1, QueueDeadline: time.Minute,
	}, nil)
	defer close(release)

	errc := make(chan error, 2)
	call := func() {
		_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("x"))
		errc <- err
	}
	go call() // occupies the slot
	<-started
	go call() // fills the queue

	// Overflowing the queue must come back as a pushback error carrying
	// a retry-after hint. The second call races with us for the queue
	// slot — if we lose the race our call is the queued one (it times
	// out) and the next attempt finds the queue full.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		_, err := c1.Call(ctx, c2.Addr(), obj, wire.KindRequest, 0, []byte("x"))
		cancel()
		var re *RemoteError
		if !errors.As(err, &re) {
			if time.Now().After(deadline) {
				t.Fatalf("overflow call never shed: %v", err)
			}
			continue
		}
		if !re.Pushback {
			t.Fatalf("overflow error not marked Pushback: %v", re)
		}
		if re.RetryAfter <= 0 {
			t.Errorf("pushback carried no retry-after hint: %v", re)
		}
		if re.NoRoute {
			t.Error("pushback error also marked NoRoute")
		}
		break
	}
}

func TestAdmissionHighPriorityBypassesSaturation(t *testing.T) {
	c1, c2, obj, started, release := saturatedPair(t, overload.Config{
		MinLimit: 1, MaxLimit: 1, InitialLimit: 1,
		QueueLimit: 1, QueueDeadline: time.Minute,
	}, nil)

	blocked := make(chan error, 1)
	go func() {
		_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("x"))
		blocked <- err
	}()
	<-started

	// With the only slot held, a high-priority request must still be
	// dispatched immediately (it bypasses the limit) — the handler
	// starts even though the first call still blocks.
	go func() {
		_, _ = callEnveloped(c1, c2.Addr(), obj, wire.KindRequest, wire.Envelope{Priority: wire.PriorityHigh}, []byte("sync"))
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("high-priority request did not bypass the saturated limit")
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Errorf("blocked call failed after release: %v", err)
	}
}

func TestAdmissionOneWayShedDroppedSilently(t *testing.T) {
	var mu sync.Mutex
	var pushbacks int
	trace := func(dir TraceDirection, f *wire.Frame) {
		if dir == TraceSend && f.Flags&wire.FlagPushback != 0 {
			mu.Lock()
			pushbacks++
			mu.Unlock()
		}
	}
	c1, c2, obj, started, release := saturatedPair(t, overload.Config{
		MinLimit: 1, MaxLimit: 1, InitialLimit: 1,
		QueueLimit: 1, QueueDeadline: time.Minute,
	}, trace)

	done := make(chan error, 1)
	go func() {
		_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("x"))
		done <- err
	}()
	<-started
	// Fill the queue, then overflow it with one-way frames: they are
	// shed, but nobody awaits them, so no pushback frame may be sent.
	queued := make(chan error, 1)
	go func() {
		_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("q"))
		queued <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the queued call enqueue
	for i := 0; i < 3; i++ {
		err := c1.Send(&wire.Frame{
			Kind: wire.KindRequest, Flags: wire.FlagOneWay,
			ReqID: c1.NextReqID(), Dst: c2.Addr(), Object: obj, Payload: []byte("fire"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the sheds happen
	close(release)
	if err := <-done; err != nil {
		t.Errorf("admitted call failed: %v", err)
	}
	if err := <-queued; err != nil {
		t.Errorf("queued call failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if pushbacks != 0 {
		t.Errorf("shed one-way frames produced %d pushback responses, want 0", pushbacks)
	}
}

func TestAdmissionAdmitsNormallyUnderCapacity(t *testing.T) {
	// With admission on but the node idle, ordinary traffic flows exactly
	// as without it — headerless payloads, custom kinds, concurrency.
	net := netsim.New()
	t.Cleanup(net.Close)
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1 := NewNode(ep1)
	n2 := NewNode(ep2, WithAdmission(overload.NewController(overload.Config{}, nil, "")))
	t.Cleanup(func() { n1.Close(); n2.Close() })
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(echoHandler{})

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("ok"))
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Payload) != "ok" {
				errs <- errors.New("bad echo")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
