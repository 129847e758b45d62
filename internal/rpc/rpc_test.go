package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/wire"
)

// rig is a two-node test fixture: client context on node 1, server on 2.
type rig struct {
	net    *netsim.Network
	client *Client
	srvCtx *kernel.Context
}

func newRig(t *testing.T, netOpts []netsim.NetworkOption, cliOpts ...ClientOption) *rig {
	t.Helper()
	net := netsim.New(netOpts...)
	ep1, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := kernel.NewNode(ep1), kernel.NewNode(ep2)
	t.Cleanup(func() { n1.Close(); n2.Close(); net.Close() })
	c1, err := n1.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n2.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	return &rig{net: net, client: NewClient(c1, cliOpts...), srvCtx: c2}
}

func (r *rig) serve(h Handler) (wire.ObjAddr, *Server) {
	srv := NewServer(h)
	id := r.srvCtx.Register(srv)
	return wire.ObjAddr{Addr: r.srvCtx.Addr(), Object: id}, srv
}

func echo(req *Request) (wire.Kind, []byte, []byte) {
	return wire.KindReply, req.Frame.Payload, nil
}

func TestCallBasic(t *testing.T) {
	r := newRig(t, nil)
	dst, _ := r.serve(HandlerFunc(echo))
	got, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("reply = %q", got)
	}
	if st := r.client.Stats(); st.Calls != 1 || st.Retransmits != 0 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCallErrorPayload(t *testing.T) {
	r := newRig(t, nil)
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		return 0, nil, []byte("app failure")
	}))
	_, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil)
	var re *kernel.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if string(re.Payload) != "app failure" {
		t.Errorf("payload = %q", re.Payload)
	}
}

func TestRetransmitOnLoss(t *testing.T) {
	// 60% loss: with retransmission every 10 ms and up to 50 attempts, the
	// call must eventually succeed.
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithDefaultLink(netsim.LinkConfig{LossRate: 0.6}), netsim.WithSeed(3)},
		WithRetryInterval(10*time.Millisecond), WithMaxAttempts(50))
	dst, _ := r.serve(HandlerFunc(echo))
	got, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte("persist"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist" {
		t.Errorf("reply = %q", got)
	}
}

func TestAtMostOnceUnderLoss(t *testing.T) {
	// The handler counts executions; under heavy reply loss the client
	// retransmits, but the server must execute each call exactly once.
	var executions atomic.Int64
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithSeed(5)},
		WithRetryInterval(5*time.Millisecond), WithMaxAttempts(100))
	// Lossy only on the reply path: server node 2 → client node 1.
	r.net.SetLink(2, 1, netsim.LinkConfig{LossRate: 0.7})
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		return wire.KindReply, []byte("done"), nil
	}))
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := executions.Load(); got != calls {
		t.Errorf("executed %d times for %d calls (at-most-once violated)", got, calls)
	}
	if st := r.srvCtx.Node().SessionTable().Stats(); st.Hits == 0 {
		t.Error("no duplicates suppressed despite 70% reply loss")
	}
	if cst := r.client.Stats(); cst.Retransmits == 0 {
		t.Error("client never retransmitted despite loss")
	}
}

func TestAtLeastOnceWithoutReplyCache(t *testing.T) {
	// A bare kernel handler, no rpc.Server in front of it, is at-most-once
	// too: retransmissions reach the node, and the kernel's dedup lookup
	// answers them from the reply the handler committed through Respond.
	var executions atomic.Int64
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithSeed(11)},
		WithRetryInterval(5*time.Millisecond), WithMaxAttempts(100))
	r.net.SetLink(2, 1, netsim.LinkConfig{LossRate: 0.7})
	id := r.srvCtx.Register(kernel.HandlerFunc(func(ktx *kernel.Context, f *wire.Frame) {
		executions.Add(1)
		_ = ktx.Respond(f, wire.KindReply, nil)
	}))
	dst := wire.ObjAddr{Addr: r.srvCtx.Addr(), Object: id}
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := executions.Load(); got != calls {
		t.Errorf("executed %d times for %d calls (at-most-once violated)", got, calls)
	}
	if cst := r.client.Stats(); cst.Retransmits == 0 {
		t.Error("client never retransmitted despite 70% reply loss")
	}
}

func TestInFlightDuplicateDropped(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Int64
	r := newRig(t, nil, WithRetryInterval(10*time.Millisecond), WithMaxAttempts(20))
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		<-release
		return wire.KindReply, []byte("slow"), nil
	}))
	done := make(chan error, 1)
	go func() {
		_, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil)
		done <- err
	}()
	// Let several retransmits pile up while the handler is blocked.
	time.Sleep(80 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("executed %d times, want 1", got)
	}
	if st := r.srvCtx.Node().SessionTable().Stats(); st.InFlight == 0 {
		t.Error("no in-flight duplicates recorded")
	}
}

func TestRetriesExhausted(t *testing.T) {
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithDefaultLink(netsim.LinkConfig{LossRate: 0.9999999}), netsim.WithSeed(1)},
		WithRetryInterval(time.Millisecond), WithMaxAttempts(3))
	dst, _ := r.serve(HandlerFunc(echo))
	_, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil)
	if !errors.Is(err, ErrTooManyRetries) {
		t.Errorf("err = %v, want ErrTooManyRetries", err)
	}
	if st := r.client.Stats(); st.Retransmits != 2 || st.Failures != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestContextCancellation(t *testing.T) {
	r := newRig(t, nil, WithRetryInterval(time.Hour))
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		time.Sleep(10 * time.Second)
		return wire.KindReply, nil, nil
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := r.client.Call(ctx, dst, wire.KindRequest, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestCustomKindRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	private := wire.KindCustom + 9
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		if req.Kind != private {
			return 0, nil, []byte("wrong kind")
		}
		return private, []byte("private-reply"), nil
	}))
	f, err := r.client.CallFrame(context.Background(), dst, private, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != private || string(f.Payload) != "private-reply" {
		t.Errorf("frame = %v %q", f.Kind, f.Payload)
	}
}

func TestReplyCacheEviction(t *testing.T) {
	// The replies a caller leaves behind stay bounded by the table's
	// per-session window.
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 2, kernel.WithSessions(session.NewTable(session.Config{RepliesPerSession: 4})))
	var executions atomic.Int64
	dst := wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(NewServer(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		return wire.KindReply, []byte(fmt.Sprintf("r%d", req.ReqID)), nil
	})))}
	client := NewClient(attachContext(t, net, 1))
	for i := 0; i < 20; i++ {
		if _, err := client.Call(context.Background(), dst, wire.KindRequest, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := executions.Load(); got != 20 {
		t.Errorf("executed %d, want 20", got)
	}
	if st := srvCtx.Node().SessionTable().Stats(); st.Replies > 4 || st.Sessions != 1 {
		t.Errorf("table holds %d replies in %d sessions, bound is 4 in 1", st.Replies, st.Sessions)
	}
}

func TestConcurrentClients(t *testing.T) {
	r := newRig(t, nil)
	dst, _ := r.serve(HandlerFunc(echo))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("p%d", i)
			got, err := r.client.Call(context.Background(), dst, wire.KindRequest, []byte(want))
			if err != nil {
				errs <- err
			} else if string(got) != want {
				errs <- fmt.Errorf("got %q want %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOneWayRequestNotCached(t *testing.T) {
	r := newRig(t, nil)
	var executions atomic.Int64
	dst, srv := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		return wire.KindReply, nil, nil
	}))
	f := &wire.Frame{
		Kind: wire.KindRequest, Flags: wire.FlagOneWay,
		ReqID: 99, Dst: dst.Addr, Object: dst.Object, Payload: []byte("async"),
	}
	if err := r.client.Context().Send(f); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for executions.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if executions.Load() != 1 {
		t.Fatalf("one-way executed %d times", executions.Load())
	}
	if st := r.srvCtx.Node().SessionTable().Stats(); st.Sessions != 0 || st.Replies != 0 {
		t.Errorf("one-way request left %d sessions, %d replies in the dedup table", st.Sessions, st.Replies)
	}
	if st := srv.Stats(); st.Executed != 1 {
		t.Errorf("server stats = %+v, want one execution", st)
	}
}

func BenchmarkRPCNullCall(b *testing.B) {
	net := netsim.New()
	defer net.Close()
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1, n2 := kernel.NewNode(ep1), kernel.NewNode(ep2)
	defer n1.Close()
	defer n2.Close()
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	client := NewClient(c1)
	srv := NewServer(HandlerFunc(echo))
	id := c2.Register(srv)
	dst := wire.ObjAddr{Addr: c2.Addr(), Object: id}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, dst, wire.KindRequest, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBackoffGrowsInterval(t *testing.T) {
	// With backoff 2x from 10ms capped at 40ms, a 5-attempt call waits at
	// least 10+20+40+40 = 110ms before giving up — a deterministic lower
	// bound that holds regardless of scheduler load (comparing two
	// independent wall-time measurements would be flaky).
	r := newRig(t, []netsim.NetworkOption{
		netsim.WithDefaultLink(netsim.LinkConfig{LossRate: 0.9999999}),
		netsim.WithSeed(1),
	}, WithRetryInterval(10*time.Millisecond), WithMaxAttempts(5))
	r.client.backoffFactor, r.client.backoffMax = 2, 40*time.Millisecond
	dst, _ := r.serve(HandlerFunc(echo))
	start := time.Now()
	_, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil)
	backed := time.Since(start)
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v", err)
	}
	if backed < 105*time.Millisecond {
		t.Errorf("5 attempts with 2x backoff took %v, deterministic floor is ~110ms", backed)
	}
	if st := r.client.Stats(); st.Retransmits != 4 {
		t.Errorf("retransmits = %d, want 4", st.Retransmits)
	}
}

// attachContext puts a node of its own on net and opens one context on it.
func attachContext(t *testing.T, net *netsim.Network, id wire.NodeID, opts ...kernel.NodeOption) *kernel.Context {
	t.Helper()
	ep, err := net.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	node := kernel.NewNode(ep, opts...)
	t.Cleanup(func() { node.Close() })
	ktx, err := node.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	return ktx
}

// caller drives a context by hand, one frame at a time, so a test decides
// which request ids are sent, in what order and with which flags. It sees
// every response that reaches its node, including one to a request the
// kernel no longer awaits (a retransmission's second answer).
type caller struct {
	t    *testing.T
	ktx  *kernel.Context
	dst  wire.ObjAddr
	env  wire.Envelope // rides every request send transmits
	resp chan *wire.Frame
}

func newCaller(t *testing.T, net *netsim.Network, id wire.NodeID, dst wire.ObjAddr) *caller {
	c := &caller{t: t, dst: dst, resp: make(chan *wire.Frame, 8)} // one send is outstanding at a time
	c.ktx = attachContext(t, net, id, kernel.WithTrace(func(dir kernel.TraceDirection, f *wire.Frame) {
		if dir == kernel.TraceRecv && f.Flags&wire.FlagResponse != 0 {
			g := *f
			g.Payload = append([]byte(nil), f.Payload...)
			c.resp <- &g
		}
	}))
	return c
}

// send transmits request id with flags and returns the response to it.
func (c *caller) send(id uint64, flags uint16, payload []byte) *wire.Frame {
	c.t.Helper()
	if err := c.ktx.Send(&wire.Frame{Kind: wire.KindRequest, Flags: flags, ReqID: id, Dst: c.dst.Addr, Object: c.dst.Object, Envelope: c.env, Payload: payload}); err != nil {
		c.t.Fatal(err)
	}
	for {
		select {
		case f := <-c.resp:
			if f.ReqID == id {
				return f
			}
		case <-time.After(5 * time.Second):
			c.t.Fatalf("no response to request %#x from %v", id, c.ktx.Addr())
		}
	}
}

// call sends one fresh request and returns its id.
func (c *caller) call(payload []byte) uint64 {
	c.t.Helper()
	id := c.ktx.NextReqID()
	if f := c.send(id, 0, payload); f.Kind != wire.KindReply {
		c.t.Fatalf("request %#x answered %v %q", id, f.Kind, f.Payload)
	}
	return id
}

// wantRefused checks that f is the explicit session-expired refusal.
func wantRefused(t *testing.T, f *wire.Frame) {
	t.Helper()
	if f.Kind != wire.KindError || !bytes.Equal(f.Payload, session.ExpiredPayload()) {
		t.Errorf("response = %v %q, want KindError carrying session.ExpiredPayload()", f.Kind, f.Payload)
	}
}

// putServer serves "key=value" puts into a map and counts them per key.
type putServer struct {
	mu    sync.Mutex
	store map[string]string
	puts  map[string]int
}

func (p *putServer) Handle(req *Request) (wire.Kind, []byte, []byte) {
	k, v, _ := strings.Cut(string(req.Frame.Payload), "=")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store[k] = v
	p.puts[k]++
	return wire.KindReply, nil, nil
}

// TestLateRetransmissionNeverReexecutes is the stale write: a put is
// answered, the caller moves on by more requests than any dedup window
// holds and overwrites the key, and then the first put's retransmission —
// held up in the network all that time — arrives. It must be refused, not
// run again over the newer value.
func TestLateRetransmissionNeverReexecutes(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1)
	kv := &putServer{store: map[string]string{}, puts: map[string]int{}}
	srv := NewServer(kv)
	c := newCaller(t, net, 2, wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(srv)})

	first := c.call([]byte("k=v1"))
	for i := 0; i < 300; i++ {
		c.call([]byte("other=x"))
	}
	c.call([]byte("k=v2"))
	wantRefused(t, c.send(first, wire.FlagRetransmit, []byte("k=v1")))

	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.store["k"] != "v2" || kv.puts["k"] != 2 {
		t.Errorf("store[k] = %q after %d put executions, want v2 after 2", kv.store["k"], kv.puts["k"])
	}
	if st, ts := srv.Stats(), srvCtx.Node().SessionTable().Stats(); ts.Expired != 1 || st.Executed != 302 {
		t.Errorf("%d executions, %d refusals; want 302 and 1", st.Executed, ts.Expired)
	}
}

// TestFirstTransmissionBelowFloorExecutes: a request id allocated early
// and sent late — its goroutine was held off the processor while younger
// requests committed — has never been presented, so it runs however far
// the floor has moved past it.
func TestFirstTransmissionBelowFloorExecutes(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1, kernel.WithSessions(session.NewTable(session.Config{RepliesPerSession: 4})))
	srv := NewServer(HandlerFunc(echo))
	c := newCaller(t, net, 2, wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(srv)})

	held := c.ktx.NextReqID()
	for i := 0; i < 10; i++ {
		c.call(nil)
	}
	if f := c.send(held, 0, []byte("late")); f.Kind != wire.KindReply || string(f.Payload) != "late" {
		t.Errorf("first transmission below the floor answered %v %q, want it executed", f.Kind, f.Payload)
	}
	// Its own retransmission is then a replay like any other.
	if f := c.send(held, wire.FlagRetransmit, []byte("late")); f.Kind != wire.KindReply || string(f.Payload) != "late" {
		t.Errorf("its retransmission answered %v %q, want the cached reply", f.Kind, f.Payload)
	}
	if st, ts := srv.Stats(), srvCtx.Node().SessionTable().Stats(); st.Executed != 11 || ts.Hits != 1 || ts.Expired != 0 {
		t.Errorf("%d executions, %d replays, %d refusals; want 11, 1 and 0", st.Executed, ts.Hits, ts.Expired)
	}
}

// TestRestartedCallerIsNotRefused: a context re-created at the same
// address draws a new conversation id, so the floor its previous
// incarnation left behind does not apply to it — even when its request
// ids are numerically lower and the first transmission was lost.
func TestRestartedCallerIsNotRefused(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1, kernel.WithSessions(session.NewTable(session.Config{RepliesPerSession: 4})))
	srv := NewServer(HandlerFunc(echo))
	dst := wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(srv)}

	old := newCaller(t, net, 2, dst)
	const oldConv, newConv = uint64(7) << 32, uint64(3) << 32
	for seq := uint64(1); seq <= 10; seq++ {
		old.send(oldConv|seq, 0, nil)
	}
	wantRefused(t, old.send(oldConv|1, wire.FlagRetransmit, nil)) // the old conversation's floor is real
	addr := old.ktx.Addr()
	old.ktx.Node().Close()

	again := newCaller(t, net, 2, dst)
	if again.ktx.Addr() != addr {
		t.Fatalf("restarted caller is at %v, want %v", again.ktx.Addr(), addr)
	}
	if f := again.send(newConv|1, wire.FlagRetransmit, []byte("hello")); f.Kind != wire.KindReply || string(f.Payload) != "hello" {
		t.Errorf("restarted caller's retransmission answered %v %q, want it executed", f.Kind, f.Payload)
	}
	if st, ts := srv.Stats(), srvCtx.Node().SessionTable().Stats(); st.Executed != 11 || ts.Expired != 1 {
		t.Errorf("%d executions, %d refusals; want 11 and the one refusal above", st.Executed, ts.Expired)
	}
}

// TestStampedRequestLooksUpOnce: a request carrying a session stamp is
// deduplicated under (sid, seq) and not a second time under its
// transmission identity — the table ends with one session, one reply.
func TestStampedRequestLooksUpOnce(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1)
	srv := NewServer(HandlerFunc(echo))
	c := newCaller(t, net, 2, wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(srv)})
	tab := srvCtx.Node().SessionTable()

	stamped := []byte("stamped")
	c.env = wire.Envelope{Session: 0xABCD, Seq: 1}
	id := c.call(stamped)
	if st := tab.Stats(); st.Sessions != 1 || st.Replies != 1 {
		t.Fatalf("stamped request left %d sessions, %d replies; want 1 and 1", st.Sessions, st.Replies)
	}
	if v, _ := tab.Peek(0xABCD, 1); v != session.Replay {
		t.Errorf("(sid, seq) verdict = %v, want replay", v)
	}
	// Its retransmission is answered by the kernel, before the server.
	if f := c.send(id, wire.FlagRetransmit, stamped); f.Kind != wire.KindReply || !bytes.Equal(f.Payload, stamped) || f.Envelope != (wire.Envelope{}) {
		t.Errorf("retransmission answered %v %q under envelope %+v; kernel responses carry none", f.Kind, f.Payload, f.Envelope)
	}
	if st, ts := srv.Stats(), tab.Stats(); st.Executed != 1 || ts.Hits != 1 {
		t.Errorf("%d executions, %d table hits; want 1 and 1", st.Executed, ts.Hits)
	}
	// An unstamped request is looked up under its transmission: one more
	// session.
	c.env = wire.Envelope{}
	c.call(nil)
	if st := tab.Stats(); st.Sessions != 2 || st.Replies != 2 {
		t.Errorf("unstamped request left %d sessions, %d replies; want 2 and 2", st.Sessions, st.Replies)
	}
}

func TestPerClientCacheIsolation(t *testing.T) {
	// One chatty client must not evict another client's
	// duplicate-suppression entries: B's cached reply survives a flood of
	// A-calls even with a tiny per-client bound.
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1, kernel.WithSessions(session.NewTable(session.Config{RepliesPerSession: 4})))
	var executions atomic.Int64
	srv := NewServer(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		return wire.KindReply, []byte("r"), nil
	}))
	dst := wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(srv)}
	tab := srvCtx.Node().SessionTable()

	b := newCaller(t, net, 2, dst)
	clientA := NewClient(attachContext(t, net, 3))
	bReq := b.call(nil)

	// A floods: far more calls than the per-client bound.
	for i := 0; i < 40; i++ {
		if _, err := clientA.Call(context.Background(), dst, wire.KindRequest, nil); err != nil {
			t.Fatal(err)
		}
	}

	// B retransmits its original request: it must be served from B's own
	// cache (no new execution).
	before := executions.Load()
	if f := b.send(bReq, wire.FlagRetransmit, nil); f.Kind != wire.KindReply || string(f.Payload) != "r" {
		t.Errorf("retransmission answered %v %q, want the cached reply", f.Kind, f.Payload)
	}
	if got := executions.Load(); got != before {
		t.Errorf("retransmission re-executed: %d -> %d (B's cache evicted by A)", before, got)
	}
	if tab.Stats().Hits == 0 {
		t.Error("retransmission was not served from the cache")
	}
}

// TestClientTableEviction pins the bounded-state trade-off of the table's
// session LRU: beyond MaxSessions the coldest caller's whole session goes
// and leaves a tombstone, so its retransmission is refused — never run
// again — while the callers that stayed warm are still answered from
// their cached replies.
func TestClientTableEviction(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1, kernel.WithSessions(session.NewTable(session.Config{MaxSessions: 2})))
	var mu sync.Mutex
	runs := map[wire.Addr]int{} // handler executions per caller
	srv := NewServer(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		mu.Lock()
		runs[req.From]++
		mu.Unlock()
		return wire.KindReply, nil, nil
	}))
	dst := wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(srv)}
	tab := srvCtx.Node().SessionTable()
	ran := func(c *caller) int {
		mu.Lock()
		defer mu.Unlock()
		return runs[c.ktx.Addr()]
	}

	cold, warm1, warm2 := newCaller(t, net, 2, dst), newCaller(t, net, 3, dst), newCaller(t, net, 4, dst)
	coldID := cold.call(nil)
	warm1ID := warm1.call(nil)
	warm2ID := warm2.call(nil) // third caller: the coldest session is evicted
	if st := tab.Stats(); st.Sessions != 2 || st.Tombstones != 1 {
		t.Fatalf("table has %d sessions, %d tombstones after a third caller arrived; want 2 and 1", st.Sessions, st.Tombstones)
	}

	if f := warm1.send(warm1ID, wire.FlagRetransmit, nil); f.Kind != wire.KindReply {
		t.Errorf("warm caller's retransmission answered %v %q", f.Kind, f.Payload)
	}
	if f := warm2.send(warm2ID, wire.FlagRetransmit, nil); f.Kind != wire.KindReply {
		t.Errorf("warm caller's retransmission answered %v %q", f.Kind, f.Payload)
	}
	if ran(warm1) != 1 || ran(warm2) != 1 || tab.Stats().Hits != 2 {
		t.Errorf("warm callers ran %d and %d times, %d answers from cache; want 1, 1 and 2",
			ran(warm1), ran(warm2), tab.Stats().Hits)
	}
	wantRefused(t, cold.send(coldID, wire.FlagRetransmit, nil))
	if st := tab.Stats(); ran(cold) != 1 || st.Hits != 2 || st.Expired != 1 {
		t.Errorf("evicted caller ran %d times, table stats %+v; want its retransmission refused (1 run, 2 cached, 1 refused)",
			ran(cold), st)
	}
}

// silentUntil serves one object that answers only once its node has
// received n transmissions of the request, and returns a client with a
// fixed 5 ms retry interval and a reader of every transmission so far. The
// node's trace hook records them as they arrive: the dedup lookup hands
// the handler the first alone and drops the rest while it is in flight.
func silentUntil(t *testing.T, n int) (*Client, wire.ObjAddr, func() []*wire.Frame) {
	net := netsim.New()
	t.Cleanup(net.Close)
	var mu sync.Mutex
	var seen []*wire.Frame
	enough := make(chan struct{})
	srvCtx := attachContext(t, net, 2, kernel.WithTrace(func(dir kernel.TraceDirection, f *wire.Frame) {
		if dir != kernel.TraceRecv || f.Flags&wire.FlagResponse != 0 {
			return
		}
		g := *f
		g.Payload = append([]byte(nil), f.Payload...)
		mu.Lock()
		defer mu.Unlock()
		if seen = append(seen, &g); len(seen) == n {
			close(enough)
		}
	}))
	id := srvCtx.Register(kernel.HandlerFunc(func(ktx *kernel.Context, f *wire.Frame) {
		<-enough
		_ = ktx.Respond(f, wire.KindReply, nil)
	}))
	client := NewClient(attachContext(t, net, 1), WithRetryInterval(5*time.Millisecond), WithMaxAttempts(50))
	return client, wire.ObjAddr{Addr: srvCtx.Addr(), Object: id}, func() []*wire.Frame {
		mu.Lock()
		defer mu.Unlock()
		return append([]*wire.Frame(nil), seen...)
	}
}

// TestClientFlagsEveryResend pins the client half of the
// first-transmission rule: the first send of a request is unflagged and
// every re-send carries FlagRetransmit, a re-send whose envelope budget
// was refreshed included.
func TestClientFlagsEveryResend(t *testing.T) {
	client, dst, arrived := silentUntil(t, 4) // the third re-send
	const total = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), total)
	defer cancel()
	if _, err := client.CallEnvelope(ctx, dst, wire.KindRequest, wire.Envelope{Budget: total}, []byte("work")); err != nil {
		t.Fatal(err)
	}
	seen := arrived()
	if len(seen) < 4 {
		t.Fatalf("server saw %d transmissions, want at least 4", len(seen))
	}
	for i, f := range seen {
		if flagged := f.Flags&wire.FlagRetransmit != 0; flagged != (i > 0) {
			t.Errorf("transmission %d: FlagRetransmit = %v, want %v", i, flagged, i > 0)
		}
		if b := f.Envelope.Budget; i > 0 && (b <= 0 || b >= seen[0].Envelope.Budget) {
			t.Errorf("transmission %d carries budget %v, want it refreshed below the first's %v", i, b, seen[0].Envelope.Budget)
		}
	}
}

// TestPrivatePayloadRetransmittedVerbatim: a service-private request is
// opaque to the client however it opens. One that opens with the deadline
// field's magic (0xF6 …) goes out byte-identical on every re-send, ctx
// deadline or not; only an envelope budget is ever refreshed.
func TestPrivatePayloadRetransmittedVerbatim(t *testing.T) {
	private := []byte{0xF6, 0x80, 0x94, 0xEB, 0xDC, 0x03, 'p', 'a', 'g', 'e'} // reads as a 1 s deadline field

	client, dst, arrived := silentUntil(t, 3) // the second re-send
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := client.Call(ctx, dst, wire.KindCustom, private); err != nil {
		t.Fatal(err)
	}
	for i, f := range arrived() {
		if !bytes.Equal(f.Payload, private) || f.Envelope != (wire.Envelope{}) {
			t.Errorf("transmission %d: payload %x, envelope %+v; want the private bytes %x and no envelope", i, f.Payload, f.Envelope, private)
		}
	}
}

func TestDefaultPolicyIsJitteredBackoff(t *testing.T) {
	r := newRig(t, nil)
	c := r.client
	if !c.jitter {
		t.Error("default client should jitter its retransmit waits")
	}
	if c.backoffFactor != 2 || c.backoffMax != 2*time.Second {
		t.Errorf("default backoff = (%v, %v), want (2, 2s)", c.backoffFactor, c.backoffMax)
	}
}

func TestRetryIntervalAloneStaysDeterministic(t *testing.T) {
	r := newRig(t, nil, WithRetryInterval(10*time.Millisecond))
	c := r.client
	if c.jitter {
		t.Error("WithRetryInterval alone must keep a deterministic fixed interval")
	}
	if c.backoffFactor != 0 {
		t.Errorf("backoffFactor = %v, want 0 (no growth)", c.backoffFactor)
	}
	if d := c.sleepFor(10 * time.Millisecond); d != 10*time.Millisecond {
		t.Errorf("sleepFor = %v, want exactly 10ms", d)
	}
}

func TestJitterDrawNeverBelowHalfInterval(t *testing.T) {
	r := newRig(t, nil)
	c := r.client
	c.backoffMax = time.Second
	if !c.jitter {
		t.Fatal("backoff should come with jitter")
	}
	// A wait far below the interval retransmits at a peer that is merely
	// taking its normal time to answer.
	seen := make(map[time.Duration]bool)
	for i := 0; i < 10000; i++ {
		d := c.sleepFor(50 * time.Millisecond)
		if d < 25*time.Millisecond || d > 50*time.Millisecond {
			t.Fatalf("jittered draw %v outside [25ms, 50ms]", d)
		}
		seen[d] = true
	}
	if len(seen) < 100 {
		t.Errorf("10000 jittered draws produced only %d distinct values", len(seen))
	}
	if d := c.sleepFor(1); d < 0 || d > 1 {
		t.Errorf("sleepFor(1ns) = %v, want 0 or 1ns", d)
	}
}

func TestPartitionHealCompletesCall(t *testing.T) {
	// A call that starts under a partition must keep retransmitting and
	// complete after Heal, inside its deadline. The fixed 10ms retry
	// interval ties the retransmit counter to the schedule: a ~60ms cut
	// eats the original send plus at least 5 retransmits, and every one
	// of those shows up in the network's partition-drop counter.
	r := newRig(t, []netsim.NetworkOption{netsim.WithSeed(1)},
		WithRetryInterval(10*time.Millisecond), WithMaxAttempts(100))
	dst, _ := r.serve(HandlerFunc(echo))
	const cut = 60 * time.Millisecond
	r.net.Partition(1, 2)
	heal := time.AfterFunc(cut, func() { r.net.Heal(1, 2) })
	defer heal.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := r.client.Call(ctx, dst, wire.KindRequest, []byte("hi"))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("call across partition+heal: %v", err)
	}
	if elapsed < cut-5*time.Millisecond {
		t.Errorf("call completed in %v, before the %v heal", elapsed, cut)
	}
	st := r.client.Stats()
	if st.Retransmits < 5 {
		t.Errorf("retransmits = %d, want ≥5 (one per 10ms interval under the 60ms cut)", st.Retransmits)
	}
	if st.Failures != 0 {
		t.Errorf("failures = %d, want 0", st.Failures)
	}
	snap := r.net.Snapshot()
	if snap.Partition == 0 {
		t.Error("partition drop counter = 0, want >0")
	}
	// Consistency between the two counters: drops during the cut are the
	// original send plus retransmits sent before the heal.
	if uint64(st.Retransmits)+1 < snap.Partition {
		t.Errorf("retransmits (%d) + original < partition drops (%d)", st.Retransmits, snap.Partition)
	}
}

func TestRetransmitReencodesDeadlineBudget(t *testing.T) {
	// Regression: a request that left with a deadline budget must not
	// present its original budget after riding out retransmissions — the
	// client stores the remaining budget in the envelope before each
	// retransmit, so the server sees how much time is actually left.
	r := newRig(t, []netsim.NetworkOption{netsim.WithSeed(1)},
		WithRetryInterval(50*time.Millisecond), WithMaxAttempts(40))

	var mu sync.Mutex
	var budgets []time.Duration
	var body []byte
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		mu.Lock()
		budgets = append(budgets, req.Frame.Envelope.Budget)
		body = append([]byte(nil), req.Frame.Payload...)
		mu.Unlock()
		return wire.KindReply, nil, nil
	}))

	// Cut the request path so the first few transmissions vanish, then
	// heal: the first frame the server ever sees is a retransmission.
	r.net.Partition(1, 2)
	const cut = 300 * time.Millisecond
	heal := time.AfterFunc(cut, func() { r.net.Heal(1, 2) })
	defer heal.Stop()

	const total = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), total)
	defer cancel()
	if _, err := r.client.CallEnvelope(ctx, dst, wire.KindRequest, wire.Envelope{Budget: total}, []byte("work")); err != nil {
		t.Fatalf("call across partition+heal: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(budgets) == 0 {
		t.Fatal("server never saw the request")
	}
	got := budgets[0]
	if got == 0 {
		t.Fatal("retransmitted request lost its deadline budget")
	}
	if got > total-cut+100*time.Millisecond {
		t.Errorf("server saw budget %v after a %v cut — stale original budget (%v) survived retransmission", got, cut, total)
	}
	if got <= 0 || got >= total {
		t.Errorf("server saw budget %v, want within (0, %v)", got, total)
	}
	if string(body) != "work" {
		t.Errorf("body after budget refresh = %q, want %q", body, "work")
	}
}
