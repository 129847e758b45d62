package kernel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// twoNodes builds two nodes on a fresh simulated network.
func twoNodes(t *testing.T, opts ...netsim.NetworkOption) (*Node, *Node) {
	t.Helper()
	net := netsim.New(opts...)
	t.Cleanup(net.Close)
	ep1, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := NewNode(ep1), NewNode(ep2)
	t.Cleanup(func() { n1.Close(); n2.Close() })
	return n1, n2
}

// echoHandler answers every request with a KindReply echoing the payload.
type echoHandler struct{}

func (echoHandler) HandleFrame(ktx *Context, f *wire.Frame) {
	_ = ktx.Respond(f, wire.KindReply, f.Payload)
}

func TestCallReply(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, err := n1.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n2.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	obj := c2.Register(echoHandler{})

	resp, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "ping" {
		t.Errorf("payload = %q", resp.Payload)
	}
	if resp.Kind != wire.KindReply {
		t.Errorf("kind = %v", resp.Kind)
	}
}

func TestCallSameNodeCrossContext(t *testing.T) {
	n1, _ := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n1.NewContext()
	obj := c2.Register(echoHandler{})
	resp, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("local"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "local" {
		t.Errorf("payload = %q", resp.Payload)
	}
}

func TestCallErrorResponse(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		_ = ktx.RespondError(f, []byte("denied"))
	}))
	_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if string(re.Payload) != "denied" {
		t.Errorf("remote payload = %q", re.Payload)
	}
	if re.NoRoute {
		t.Error("application error marked NoRoute")
	}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

func TestApplicationNoSuchTextIsNotNoRoute(t *testing.T) {
	// An application error whose text mimics the kernel's must not be
	// mistaken for "addressee missing": NoRoute keys on the wire flag,
	// which only kernels set.
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		_ = ktx.RespondError(f, []byte("no such entry"))
	}))
	_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.NoRoute {
		t.Error(`application "no such entry" error classified as NoRoute`)
	}
}

func TestCallNoSuchObject(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	_, err := c1.Call(context.Background(), c2.Addr(), 999, wire.KindRequest, 0, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError for missing object", err)
	}
	if !re.NoRoute {
		t.Error("missing-object error not marked NoRoute")
	}
}

func TestCallNoSuchContext(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	dst := wire.Addr{Node: n2.ID(), Context: 42}
	_, err := c1.Call(context.Background(), dst, 1, wire.KindRequest, 0, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError for missing context", err)
	}
	if !re.NoRoute {
		t.Error("missing-context error not marked NoRoute")
	}
}

func TestCallTimeout(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		// Never responds.
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c1.Call(ctx, c2.Addr(), obj, wire.KindRequest, 0, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestLateReplyDropped(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	release := make(chan struct{})
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		<-release
		_ = ktx.Respond(f, wire.KindReply, []byte("late"))
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c1.Call(ctx, c2.Addr(), obj, wire.KindRequest, 0, nil); err == nil {
		t.Fatal("want timeout")
	}
	close(release)
	// The late reply must not disturb a subsequent call.
	obj2 := c2.Register(echoHandler{})
	resp, err := c1.Call(context.Background(), c2.Addr(), obj2, wire.KindRequest, 0, []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "fresh" {
		t.Errorf("payload = %q", resp.Payload)
	}
}

func TestCustomKindPassThrough(t *testing.T) {
	// A service-private protocol: custom kind both ways; the kernel must
	// route it without interpretation.
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	private := wire.KindCustom + 7
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		if f.Kind != private {
			_ = ktx.RespondError(f, []byte("wrong kind"))
			return
		}
		_ = ktx.Respond(f, private, append([]byte("ack:"), f.Payload...))
	}))
	resp, err := c1.Call(context.Background(), c2.Addr(), obj, private, 0, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != private || string(resp.Payload) != "ack:secret" {
		t.Errorf("resp = %v %q", resp.Kind, resp.Payload)
	}
}

func TestOneWayNoResponse(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	got := make(chan []byte, 1)
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		got <- append([]byte(nil), f.Payload...)
	}))
	err := c1.Send(&wire.Frame{
		Kind: wire.KindRequest, Flags: wire.FlagOneWay,
		ReqID: c1.NextReqID(), Dst: c2.Addr(), Object: obj, Payload: []byte("fire"),
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "fire" {
			t.Errorf("payload = %q", p)
		}
	case <-time.After(time.Second):
		t.Fatal("one-way frame never arrived")
	}
}

func TestRegisterAtAndUnregister(t *testing.T) {
	n1, _ := twoNodes(t)
	c1, _ := n1.NewContext()
	if err := c1.RegisterAt(100, echoHandler{}); err != nil {
		t.Fatal(err)
	}
	if err := c1.RegisterAt(100, echoHandler{}); !errors.Is(err, ErrObjectExists) {
		t.Errorf("duplicate RegisterAt = %v", err)
	}
	// Fresh ids must not collide with fixed ones, and a high fixed id
	// must not shift where sequential allocation lands: well-known
	// registrations (the health prober at 0x48454C50) would otherwise
	// push the directory off its well-known object 1.
	if id := c1.Register(echoHandler{}); id == 100 {
		t.Errorf("Register collided with RegisterAt(100)")
	} else if id != 1 {
		t.Errorf("first Register after RegisterAt(100) = %d, want 1", id)
	}
	// And when the allocator walks into the fixed id, it steps over it.
	for i := 0; i < 101; i++ {
		if id := c1.Register(echoHandler{}); id == 100 {
			t.Fatalf("Register handed out the fixed id 100")
		}
	}
	if _, ok := c1.Lookup(100); !ok {
		t.Error("Lookup(100) failed")
	}
	c1.Unregister(100)
	if _, ok := c1.Lookup(100); ok {
		t.Error("Lookup(100) found unregistered object")
	}
}

func TestConcurrentCalls(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(echoHandler{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, payload)
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Payload) != string(payload) {
				errs <- fmt.Errorf("mismatched reply %q for %q", resp.Payload, payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNestedCallFromHandler(t *testing.T) {
	// Object A's handler calls object B before replying — must not deadlock.
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	inner := c2.Register(echoHandler{})
	outer := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		resp, err := ktx.Call(context.Background(), ktx.Addr(), inner, wire.KindRequest, 0, f.Payload)
		if err != nil {
			_ = ktx.RespondError(f, []byte(err.Error()))
			return
		}
		_ = ktx.Respond(f, wire.KindReply, append([]byte("outer:"), resp.Payload...))
	}))
	resp, err := c1.Call(context.Background(), c2.Addr(), outer, wire.KindRequest, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "outer:x" {
		t.Errorf("payload = %q", resp.Payload)
	}
}

func TestNodeCloseFailsPendingCalls(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		// Never responds; caller is stuck until its node closes.
	}))
	done := make(chan error, 1)
	go func() {
		_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	n1.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("pending call survived node close")
	}
	if _, err := n1.NewContext(); !errors.Is(err, ErrClosed) {
		t.Errorf("NewContext after Close = %v", err)
	}
}

func TestCallAfterClose(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	n1.Close()
	_, err := c1.Call(context.Background(), c2.Addr(), 1, wire.KindRequest, 0, nil)
	if !errors.Is(err, ErrClosed) && err == nil {
		t.Errorf("Call after close = %v, want error", err)
	}
}

func TestContextLookupByNode(t *testing.T) {
	n1, _ := twoNodes(t)
	c1, _ := n1.NewContext()
	got, ok := n1.Context(c1.Addr().Context)
	if !ok || got != c1 {
		t.Error("Node.Context lookup failed")
	}
	if _, ok := n1.Context(999); ok {
		t.Error("found nonexistent context")
	}
}

func TestObjectCount(t *testing.T) {
	n1, _ := twoNodes(t)
	c1, _ := n1.NewContext()
	if c1.ObjectCount() != 0 {
		t.Errorf("fresh context has %d objects", c1.ObjectCount())
	}
	c1.Register(echoHandler{})
	c1.Register(echoHandler{})
	if c1.ObjectCount() != 2 {
		t.Errorf("ObjectCount = %d, want 2", c1.ObjectCount())
	}
}

func BenchmarkKernelCallRemote(b *testing.B) {
	net := netsim.New()
	defer net.Close()
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1, n2 := NewNode(ep1), NewNode(ep2)
	defer n1.Close()
	defer n2.Close()
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(echoHandler{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c1.Call(ctx, c2.Addr(), obj, wire.KindRequest, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReplaceHandler(t *testing.T) {
	n1, n2 := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(echoHandler{})

	// Swap in a handler with different behaviour; callers must see it
	// with no window of "no such object".
	old, err := c2.Replace(obj, HandlerFunc(func(ktx *Context, f *wire.Frame) {
		_ = ktx.Respond(f, wire.KindReply, []byte("replaced"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if old == nil {
		t.Fatal("Replace returned nil old handler")
	}
	resp, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "replaced" {
		t.Errorf("payload = %q", resp.Payload)
	}
	if _, err := c2.Replace(999, echoHandler{}); !errors.Is(err, ErrNoObject) {
		t.Errorf("Replace(missing) = %v, want ErrNoObject", err)
	}
}

func TestReqIDOriginsDiffer(t *testing.T) {
	// Two contexts (think: two incarnations of a restarted process) must
	// not mint colliding request-id sequences — remote dedup tables key a
	// session on (address, conversation) and order it by sequence, so each
	// context draws its own conversation (high half) and counts the
	// sequence (low half) from 1.
	n1, _ := twoNodes(t)
	c1, _ := n1.NewContext()
	c2, _ := n1.NewContext()
	a, b := c1.NextReqID(), c2.NextReqID()
	if a>>32 == b>>32 {
		t.Errorf("two fresh contexts drew the same conversation id: %#x, %#x", a, b)
	}
	if uint32(a) != 1 || uint32(b) != 1 || c1.NextReqID() != a+1 {
		t.Errorf("first request ids %#x, %#x: want sequence 1 in the low half, counting up", a, b)
	}
	if n1.SessionTable() == nil {
		t.Error("a node built without WithSessions has no dedup table")
	}
}

func TestTraceHookSeesTraffic(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	var mu sync.Mutex
	var events []string
	trace := func(dir TraceDirection, f *wire.Frame) {
		mu.Lock()
		events = append(events, dir.String()+":"+f.Kind.String())
		mu.Unlock()
	}
	n1 := NewNode(ep1, WithTrace(trace))
	n2 := NewNode(ep2, WithTrace(trace))
	t.Cleanup(func() { n1.Close(); n2.Close() })
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	obj := c2.Register(echoHandler{})
	if _, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]bool{"send:request": false, "recv:request": false, "send:reply": false, "recv:reply": false}
	for _, e := range events {
		if _, ok := want[e]; ok {
			want[e] = true
		}
	}
	for e, seen := range want {
		if !seen {
			t.Errorf("trace missing %s (saw %v)", e, events)
		}
	}
	if TraceSend.String() != "send" || TraceRecv.String() != "recv" || TraceDirection(9).String() != "dir(9)" {
		t.Error("TraceDirection.String mismatch")
	}
}

func TestDispatchLimitBoundsConcurrency(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1 := NewNode(ep1)
	n2 := NewNode(ep2, WithDispatchLimit(2))
	t.Cleanup(func() { n1.Close(); n2.Close() })
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()

	var mu sync.Mutex
	running, peak := 0, 0
	release := make(chan struct{})
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		<-release
		mu.Lock()
		running--
		mu.Unlock()
		_ = ktx.Respond(f, wire.KindReply, nil)
	}))

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, nil)
		}()
	}
	// Give dispatch time to admit as many handlers as it will.
	time.Sleep(100 * time.Millisecond)
	mu.Lock()
	got := peak
	mu.Unlock()
	close(release)
	wg.Wait()
	if got > 2 {
		t.Errorf("peak concurrent handlers = %d, limit was 2", got)
	}
	if got == 0 {
		t.Error("no handler ever ran")
	}
}

func TestKernelAnswersPing(t *testing.T) {
	// Liveness probes are answered by the kernel itself, even for a
	// context that does not exist: a ping asks about the node, not an
	// object. This is the primitive internal/health probes with.
	n1, _ := twoNodes(t)
	c1, err := n1.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c1.Call(context.Background(),
		wire.Addr{Node: 2, Context: 999}, wire.KernelObject, wire.KindPing, 0, nil)
	if err != nil {
		t.Fatalf("ping: %v", err)
	}
	if resp.Kind != wire.KindAck {
		t.Errorf("response kind = %v, want KindAck", resp.Kind)
	}
}

func TestOneWayPingUnanswered(t *testing.T) {
	n1, _ := twoNodes(t)
	c1, err := n1.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c1.Call(ctx, wire.Addr{Node: 2, Context: 1}, wire.KernelObject,
		wire.KindPing, wire.FlagOneWay, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("one-way ping: err = %v, want deadline exceeded (no answer)", err)
	}
}
