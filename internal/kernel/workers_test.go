package kernel

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// workerPair is twoNodes with options on the serving node.
func workerPair(t testing.TB, opts ...NodeOption) (client *Context, server *Node, sctx *Context) {
	t.Helper()
	net := netsim.New()
	t.Cleanup(net.Close)
	ep1, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := NewNode(ep1), NewNode(ep2, opts...)
	t.Cleanup(func() { n1.Close(); n2.Close() })
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	return c1, n2, c2
}

func TestWorkersReusedAcrossSequentialCalls(t *testing.T) {
	c1, n2, c2 := workerPair(t)
	obj := c2.Register(echoHandler{})
	for i := 0; i < 1000; i++ {
		if _, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One caller never has two handlers alive. A second worker can still
	// start once: the reply leaves inside HandleFrame, so the next request
	// may arrive before the first worker is parked again. From then on
	// one of the two is always parked.
	if got := n2.spawned.Load(); got < 1 || got > 2 {
		t.Errorf("1000 sequential calls spawned %d workers, want 1 or 2", got)
	}
}

func TestNestedSameNodeCallSpawnsPastBusyWorker(t *testing.T) {
	// The outer handler holds one of the two dispatch slots and its worker
	// while it calls the inner object on the same node. The inner frame
	// must get a worker of its own — queued behind the busy one it would
	// wait for a handler that is waiting for it.
	c1, n2, c2 := workerPair(t, WithDispatchLimit(2))
	inner := c2.Register(echoHandler{})
	outer := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		resp, err := ktx.Call(context.Background(), ktx.Addr(), inner, wire.KindRequest, 0, f.Payload)
		if err != nil {
			_ = ktx.RespondError(f, []byte(err.Error()))
			return
		}
		_ = ktx.Respond(f, wire.KindReply, resp.Payload)
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c1.Call(ctx, c2.Addr(), outer, wire.KindRequest, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "x" {
		t.Errorf("payload = %q", resp.Payload)
	}
	if got := n2.spawned.Load(); got != 2 {
		t.Errorf("spawned %d workers, want 2 (one per nesting level)", got)
	}
}

// waitGoroutines polls until the process has at most want goroutines.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want at most %d\n%s", what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWorkersRetireWhenIdleAndExitOnClose(t *testing.T) {
	c1, n2, c2 := workerPair(t)
	n2.workerIdle = 20 * time.Millisecond // before any dispatch: no worker exists yet
	const callers = 8
	started := make(chan struct{}, callers)
	release := make(chan struct{})
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		started <- struct{}{}
		<-release
		_ = ktx.Respond(f, wire.KindReply, nil)
	}))
	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		for i := 0; i < callers; i++ {
			<-started
		}
		close(release)
		wg.Wait()
	}
	base := runtime.NumGoroutine()

	burst()
	if got := n2.spawned.Load(); got != callers {
		t.Fatalf("%d concurrent handlers spawned %d workers", callers, got)
	}
	waitGoroutines(t, base, "parked workers after two idle periods")

	// Retired workers are gone for good: the next burst starts new ones,
	// and closing the node stops them without waiting out the idle period.
	release = make(chan struct{})
	n2.workerIdle = time.Hour // read only by a worker as it starts, and none is starting now
	burst()
	if got := n2.spawned.Load(); got <= callers {
		t.Fatalf("second burst spawned nothing (%d workers in total): retired workers still took jobs", got)
	}
	pump := 1 // n2's receive pump goes with it
	n2.Close()
	waitGoroutines(t, base-pump, "workers after Node.Close")
}

// deepHandler replies after descending a call chain about 8 KiB deep —
// the shape of a reflective decode under a stub call, which is what makes
// a fresh 2 KiB goroutine stack grow (and be copied) several times.
type deepHandler struct{}

//go:noinline
func descend(n int, pad [240]byte) byte {
	if n == 0 {
		return pad[0]
	}
	pad[n%len(pad)]++
	return descend(n-1, pad) + pad[n%len(pad)]
}

var deepSink byte

func (deepHandler) HandleFrame(ktx *Context, f *wire.Frame) {
	deepSink = descend(16, [240]byte{})
	_ = ktx.Respond(f, wire.KindReply, nil)
}

func BenchmarkDispatchDeepHandler(b *testing.B) {
	c1, _, c2 := workerPair(b)
	obj := c2.Register(deepHandler{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c1.Call(ctx, c2.Addr(), obj, wire.KindRequest, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
