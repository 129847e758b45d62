package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
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

func (r *rig) serve(h Handler, opts ...ServerOption) (wire.ObjAddr, *Server) {
	srv := NewServer(h, opts...)
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
	dst, srv := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
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
	st := srv.Stats()
	if st.DupCached == 0 {
		t.Error("no duplicates suppressed despite 70% reply loss")
	}
	if cst := r.client.Stats(); cst.Retransmits == 0 {
		t.Error("client never retransmitted despite loss")
	}
}

func TestAtLeastOnceWithoutReplyCache(t *testing.T) {
	// Ablation: disabling the reply cache (WithReplyCache(0)) lets
	// duplicate executions through — demonstrating why the cache exists.
	var executions atomic.Int64
	r := newRig(t,
		[]netsim.NetworkOption{netsim.WithSeed(11)},
		WithRetryInterval(5*time.Millisecond), WithMaxAttempts(100))
	r.net.SetLink(2, 1, netsim.LinkConfig{LossRate: 0.7})
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		return wire.KindReply, nil, nil
	}), WithReplyCache(0))
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := executions.Load(); got <= calls {
		t.Errorf("executed %d times for %d calls; expected duplicates without reply cache", got, calls)
	}
}

func TestInFlightDuplicateDropped(t *testing.T) {
	release := make(chan struct{})
	var executions atomic.Int64
	r := newRig(t, nil, WithRetryInterval(10*time.Millisecond), WithMaxAttempts(20))
	dst, srv := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
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
	if st := srv.Stats(); st.DupInFlight == 0 {
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
	// A tiny reply cache must stay bounded and keep only the newest entries.
	r := newRig(t, nil)
	var executions atomic.Int64
	dst, srv := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		return wire.KindReply, []byte(fmt.Sprintf("r%d", req.ReqID)), nil
	}), WithReplyCache(4))
	for i := 0; i < 20; i++ {
		if _, err := r.client.Call(context.Background(), dst, wire.KindRequest, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := executions.Load(); got != 20 {
		t.Errorf("executed %d, want 20", got)
	}
	if size := srv.cacheLen(r.client.Context().Addr()); size > 4 {
		t.Errorf("cache holds %d entries, bound is 4", size)
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
	if size := srv.cacheLen(r.client.Context().Addr()); size != 0 {
		t.Errorf("one-way request cached (%d entries)", size)
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
	}, WithRetryInterval(10*time.Millisecond), WithMaxAttempts(5),
		WithBackoff(2, 40*time.Millisecond), WithJitter(false))
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

func TestPerClientCacheIsolation(t *testing.T) {
	// One chatty client must not evict another client's
	// duplicate-suppression entries: B's cached reply survives a flood of
	// A-calls even with a tiny per-client bound.
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1)
	var executions atomic.Int64
	srv := NewServer(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		executions.Add(1)
		return wire.KindReply, []byte("r"), nil
	}), WithReplyCache(4))
	id := srvCtx.Register(srv)
	dst := wire.ObjAddr{Addr: srvCtx.Addr(), Object: id}

	clientB := NewClient(attachContext(t, net, 2))
	clientA := NewClient(attachContext(t, net, 3))
	ctx := context.Background()

	// B makes one call; remember its request id by replaying the frame by
	// hand afterwards.
	bReq, bCh, err := clientB.Context().NewPending()
	if err != nil {
		t.Fatal(err)
	}
	frame := &wire.Frame{Kind: wire.KindRequest, ReqID: bReq, Dst: dst.Addr, Object: dst.Object}
	if err := clientB.Context().Send(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bCh:
	case <-time.After(2 * time.Second):
		t.Fatal("no reply for B")
	}
	clientB.Context().CancelPending(bReq)

	// A floods: far more calls than the per-client bound.
	for i := 0; i < 40; i++ {
		if _, err := clientA.Call(ctx, dst, wire.KindRequest, nil); err != nil {
			t.Fatal(err)
		}
	}

	// B retransmits its original request: it must be served from B's own
	// cache (no new execution).
	before := executions.Load()
	bCh2 := make(chan *wire.Frame, 1)
	// Reuse the pending machinery: register the same id again.
	bReq2, ch, err := clientB.Context().NewPending()
	if err != nil {
		t.Fatal(err)
	}
	_ = bReq2
	_ = bCh2
	retrans := &wire.Frame{Kind: wire.KindRequest, Flags: wire.FlagRetransmit, ReqID: bReq, Dst: dst.Addr, Object: dst.Object}
	if err := clientB.Context().Send(retrans); err != nil {
		t.Fatal(err)
	}
	// The reply correlates to bReq, which we no longer await; instead just
	// give the server a moment and assert no re-execution.
	time.Sleep(50 * time.Millisecond)
	_ = ch
	if got := executions.Load(); got != before {
		t.Errorf("retransmission re-executed: %d -> %d (B's cache evicted by A)", before, got)
	}
	if st := srv.Stats(); st.DupCached == 0 {
		t.Error("retransmission was not served from the cache")
	}
}

// attachContext puts a node of its own on net and opens one context on it.
func attachContext(t *testing.T, net *netsim.Network, id wire.NodeID) *kernel.Context {
	t.Helper()
	ep, err := net.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	node := kernel.NewNode(ep)
	t.Cleanup(func() { node.Close() })
	ktx, err := node.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	return ktx
}

// TestClientTableEviction pins the bounded-state trade-off of the
// per-client LRU: beyond clientLimit the coldest client's whole
// conversation table goes, so its retransmission executes again, while
// the clients that stayed warm are still answered from their caches.
func TestClientTableEviction(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	srvCtx := attachContext(t, net, 1)
	var mu sync.Mutex
	runs := map[wire.Addr]int{} // handler executions per caller
	srv := NewServer(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		mu.Lock()
		runs[req.From]++
		mu.Unlock()
		return wire.KindReply, nil, nil
	}))
	srv.clientLimit = 2
	dst := wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(srv)}
	ran := func(ktx *kernel.Context) int {
		mu.Lock()
		defer mu.Unlock()
		return runs[ktx.Addr()]
	}

	// call sends one fresh request from ktx, waits for its reply and
	// returns the request id.
	call := func(ktx *kernel.Context) uint64 {
		t.Helper()
		id, ch, err := ktx.NewPending()
		if err != nil {
			t.Fatal(err)
		}
		defer ktx.CancelPending(id)
		if err := ktx.Send(&wire.Frame{Kind: wire.KindRequest, ReqID: id, Dst: dst.Addr, Object: dst.Object}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("no reply for %v", ktx.Addr())
		}
		return id
	}
	// retransmit repeats request id from ktx and waits until the server
	// has either run it again or answered it from the cache (nobody
	// awaits the reply, so the counters tell).
	retransmit := func(ktx *kernel.Context, id uint64) {
		t.Helper()
		before := uint64(ran(ktx)) + srv.Stats().DupCached
		if err := ktx.Send(&wire.Frame{Kind: wire.KindRequest, Flags: wire.FlagRetransmit, ReqID: id, Dst: dst.Addr, Object: dst.Object}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for uint64(ran(ktx))+srv.Stats().DupCached == before {
			if time.Now().After(deadline) {
				t.Fatalf("retransmission from %v never reached the server", ktx.Addr())
			}
			time.Sleep(time.Millisecond)
		}
	}

	cold, warm1, warm2 := attachContext(t, net, 2), attachContext(t, net, 3), attachContext(t, net, 4)
	coldID := call(cold)
	warm1ID := call(warm1)
	warm2ID := call(warm2) // third client: the coldest table is evicted
	if n := srv.cacheLen(cold.Addr()); n != 0 {
		t.Fatalf("coldest client still has %d cached replies after a third client arrived", n)
	}

	retransmit(warm1, warm1ID)
	retransmit(warm2, warm2ID)
	if ran(warm1) != 1 || ran(warm2) != 1 || srv.Stats().DupCached != 2 {
		t.Errorf("warm clients ran %d and %d times, %d answers from cache; want 1, 1 and 2",
			ran(warm1), ran(warm2), srv.Stats().DupCached)
	}
	retransmit(cold, coldID)
	if ran(cold) != 2 || srv.Stats().DupCached != 2 {
		t.Errorf("evicted client ran %d times, %d answers from cache; want its retransmission executed again (2, 2)",
			ran(cold), srv.Stats().DupCached)
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
	r := newRig(t, nil, WithBackoff(2, time.Second))
	c := r.client
	if !c.jitter {
		t.Fatal("WithBackoff should imply jitter unless WithJitter(false)")
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
	// Regression: a payload opening with a deadline-budget header must not
	// present its original budget after riding out retransmissions — the
	// client re-encodes the remaining budget before each retransmit, so
	// the server sees how much time is actually left.
	r := newRig(t, []netsim.NetworkOption{netsim.WithSeed(1)},
		WithRetryInterval(50*time.Millisecond), WithMaxAttempts(40))

	var mu sync.Mutex
	var budgets []time.Duration
	var body []byte
	dst, _ := r.serve(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		b, rest := wire.SplitDeadlineHeader(req.Frame.Payload)
		mu.Lock()
		budgets = append(budgets, b)
		body = append([]byte(nil), rest...)
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
	payload := append(wire.AppendDeadlineHeader(nil, total), []byte("work")...)
	if _, err := r.client.Call(ctx, dst, wire.KindRequest, payload); err != nil {
		t.Fatalf("call across partition+heal: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(budgets) == 0 {
		t.Fatal("server never saw the request")
	}
	got := budgets[0]
	if got == 0 {
		t.Fatal("retransmitted request lost its deadline header")
	}
	if got > total-cut+100*time.Millisecond {
		t.Errorf("server saw budget %v after a %v cut — stale original budget (%v) survived retransmission", got, cut, total)
	}
	if got <= 0 || got >= total {
		t.Errorf("server saw budget %v, want within (0, %v)", got, total)
	}
	if string(body) != "work" {
		t.Errorf("body after header rewrite = %q, want %q", body, "work")
	}
}
