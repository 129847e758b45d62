package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// kvService is a tiny keyed store: get is a read, put is a write.
type kvService struct {
	mu   sync.Mutex
	m    map[string]string
	gets int
	puts int
}

func newKV() *kvService { return &kvService{m: make(map[string]string)} }

func (s *kvService) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch method {
	case "get":
		k, _ := args[0].(string)
		s.gets++
		v, ok := s.m[k]
		if !ok {
			return nil, core.Errorf(core.CodeApp, method, "no such key %q", k)
		}
		return []any{v}, nil
	case "put":
		k, _ := args[0].(string)
		v, _ := args[1].(string)
		s.puts++
		s.m[k] = v
		return nil, nil
	default:
		return nil, core.NoSuchMethod(method)
	}
}

func (s *kvService) counts() (gets, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts
}

// cacheWorld wires one server runtime and n client runtimes, with the
// caching factory registered everywhere.
type cacheWorld struct {
	factory *Factory
	svc     *kvService
	ref     codec.Ref
	server  *core.Runtime
	clients []*core.Runtime
}

func newCacheWorld(t *testing.T, nClients int, opts ...FactoryOption) *cacheWorld {
	t.Helper()
	net := netsim.New()
	t.Cleanup(net.Close)
	w := &cacheWorld{factory: NewFactory([]string{"get"}, opts...), svc: newKV()}
	mk := func(id wire.NodeID) *core.Runtime {
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
		rt := core.NewRuntime(ktx)
		rt.RegisterProxyType("KV", w.factory)
		return rt
	}
	w.server = mk(1)
	for i := 0; i < nClients; i++ {
		w.clients = append(w.clients, mk(wire.NodeID(i+2)))
	}
	ref, err := w.server.Export(w.svc, "KV")
	if err != nil {
		t.Fatal(err)
	}
	w.ref = ref
	return w
}

func (w *cacheWorld) proxy(t *testing.T, i int) *Proxy {
	t.Helper()
	p, err := w.clients[i].Import(w.ref)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := p.(*Proxy)
	if !ok {
		t.Fatalf("import produced %T, want cache.Proxy", p)
	}
	return cp
}

func TestReadsHitCache(t *testing.T) {
	w := newCacheWorld(t, 1)
	p := w.proxy(t, 0)
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "put", "k", "v1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := p.Invoke(ctx, "get", "k")
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != "v1" {
			t.Fatalf("get = %v", res)
		}
	}
	gets, puts := w.svc.counts()
	if gets != 1 || puts != 1 {
		t.Errorf("server saw %d gets %d puts; want 1 get (9 cache hits), 1 put", gets, puts)
	}
	st := p.Stats()
	if st.Hits != 9 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("proxy stats = %+v", st)
	}
}

func TestWriteInvalidatesOtherSharers(t *testing.T) {
	w := newCacheWorld(t, 2)
	pA, pB := w.proxy(t, 0), w.proxy(t, 1)
	ctx := context.Background()

	if _, err := pA.Invoke(ctx, "put", "k", "old"); err != nil {
		t.Fatal(err)
	}
	// Both cache the old value.
	for _, p := range []*Proxy{pA, pB} {
		if res, err := p.Invoke(ctx, "get", "k"); err != nil || res[0] != "old" {
			t.Fatalf("warm read = %v, %v", res, err)
		}
	}
	// A writes; sync invalidation means B's copy is gone when put returns.
	if _, err := pA.Invoke(ctx, "put", "k", "new"); err != nil {
		t.Fatal(err)
	}
	res, err := pB.Invoke(ctx, "get", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "new" {
		t.Errorf("B read %v after A's write, want \"new\" (coherence violated)", res[0])
	}
	if st := pB.Stats(); st.Invalidations == 0 {
		t.Error("B never processed an invalidation")
	}
	cs, ok := w.factory.CoordinatorStatsFor(w.ref.Target)
	if !ok {
		t.Fatal("no coordinator stats")
	}
	if cs.Writes != 2 || cs.InvalidationsSent == 0 || cs.Sharers != 2 {
		t.Errorf("coordinator stats = %+v", cs)
	}
}

func TestWriterFlushesOwnCache(t *testing.T) {
	w := newCacheWorld(t, 1)
	p := w.proxy(t, 0)
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "put", "k", "v1"); err != nil {
		t.Fatal(err)
	}
	if res, _ := p.Invoke(ctx, "get", "k"); res[0] != "v1" {
		t.Fatal("warm failed")
	}
	if _, err := p.Invoke(ctx, "put", "k", "v2"); err != nil {
		t.Fatal(err)
	}
	res, err := p.Invoke(ctx, "get", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "v2" {
		t.Errorf("writer read its own stale cache: %v", res[0])
	}
}

func TestLeaseModeExpires(t *testing.T) {
	w := newCacheWorld(t, 1, WithMode(ModeLease), WithLeaseTTL(30*time.Millisecond))
	p := w.proxy(t, 0)
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, "get", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, "get", "k"); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("within lease: stats = %+v", st)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := p.Invoke(ctx, "get", "k"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Misses != 2 {
		t.Errorf("after lease expiry stats = %+v, want second miss", st)
	}
}

func TestLeaseModeCanServeStale(t *testing.T) {
	// Documented behaviour: lease mode trades coherence for callback-free
	// operation; within the lease a sharer can read a stale value.
	w := newCacheWorld(t, 2, WithMode(ModeLease), WithLeaseTTL(10*time.Second))
	pA, pB := w.proxy(t, 0), w.proxy(t, 1)
	ctx := context.Background()
	if _, err := pA.Invoke(ctx, "put", "k", "old"); err != nil {
		t.Fatal(err)
	}
	if res, _ := pB.Invoke(ctx, "get", "k"); res[0] != "old" {
		t.Fatal("warm failed")
	}
	if _, err := pA.Invoke(ctx, "put", "k", "new"); err != nil {
		t.Fatal(err)
	}
	res, err := pB.Invoke(ctx, "get", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "old" {
		t.Errorf("lease-mode read = %v; expected stale \"old\" within lease", res[0])
	}
}

func TestStubInteropWriteInvalidates(t *testing.T) {
	// A client that never registered the caching factory gets a plain stub
	// (default factory); its writes go through the standard path and must
	// still invalidate caching clients.
	w := newCacheWorld(t, 2)
	pCache := w.proxy(t, 0)
	ctx := context.Background()

	// Client 1 builds a *stub* by bypassing the registered factory.
	stub := core.NewStub(w.clients[1], w.ref)
	if _, err := pCache.Invoke(ctx, "put", "k", "old"); err != nil {
		t.Fatal(err)
	}
	if res, _ := pCache.Invoke(ctx, "get", "k"); res[0] != "old" {
		t.Fatal("warm failed")
	}
	if _, err := stub.Invoke(ctx, "put", "k", "new"); err != nil {
		t.Fatal(err)
	}
	// Stub write's invalidation is issued after the inner invoke; give the
	// ack round a moment (stub path invalidation is synchronous before the
	// standard reply is produced, so one read suffices).
	res, err := pCache.Invoke(ctx, "get", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "new" {
		t.Errorf("caching client read %v after stub write, want \"new\"", res[0])
	}
	// And the stub can read what caching clients wrote.
	if _, err := pCache.Invoke(ctx, "put", "k2", "via-cache"); err != nil {
		t.Fatal(err)
	}
	res, err = stub.Invoke(ctx, "get", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "via-cache" {
		t.Errorf("stub read = %v", res[0])
	}
}

func TestCloseDeregisters(t *testing.T) {
	w := newCacheWorld(t, 1)
	p := w.proxy(t, 0)
	if _, err := p.Invoke(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	cs, _ := w.factory.CoordinatorStatsFor(w.ref.Target)
	if cs.Sharers != 1 {
		t.Fatalf("sharers = %d, want 1", cs.Sharers)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	cs, _ = w.factory.CoordinatorStatsFor(w.ref.Target)
	if cs.Sharers != 0 {
		t.Errorf("sharers after close = %d", cs.Sharers)
	}
	if _, err := p.Invoke(context.Background(), "get", "k"); !errors.Is(err, core.ErrProxyClosed) {
		t.Errorf("invoke on closed = %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestCoordinatorRefusesCachingWrites(t *testing.T) {
	// A tampered hint that declares "put" a read must be rejected by the
	// coordinator — the server enforces its own policy.
	w := newCacheWorld(t, 1)
	h, err := decodeHint(w.ref.Hint)
	if err != nil {
		t.Fatal(err)
	}
	h.Reads = append(h.Reads, "put")
	badRef := w.ref
	badRef.Hint = h.encode()

	p, err := newProxy(w.clients[0], badRef, h)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Invoke(context.Background(), "put", "k", "v")
	var ie *core.InvokeError
	if !errors.As(err, &ie) || ie.Code != core.CodeBadArgs {
		t.Errorf("tampered write = %v, want bad-args refusal", err)
	}
}

func TestAppErrorsPassThrough(t *testing.T) {
	w := newCacheWorld(t, 1)
	p := w.proxy(t, 0)
	_, err := p.Invoke(context.Background(), "get", "missing")
	var ie *core.InvokeError
	if !errors.As(err, &ie) || ie.Code != core.CodeApp {
		t.Errorf("err = %v", err)
	}
	// Errors must not be cached: bind the key, read again, see the value.
	if _, err := p.Invoke(context.Background(), "put", "missing", "now-present"); err != nil {
		t.Fatal(err)
	}
	res, err := p.Invoke(context.Background(), "get", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "now-present" {
		t.Errorf("res = %v", res)
	}
}

func TestManySharersCoherent(t *testing.T) {
	const sharers = 8
	w := newCacheWorld(t, sharers)
	ctx := context.Background()
	proxies := make([]*Proxy, sharers)
	for i := range proxies {
		proxies[i] = w.proxy(t, i)
	}
	if _, err := proxies[0].Invoke(ctx, "put", "k", "v0"); err != nil {
		t.Fatal(err)
	}
	for _, p := range proxies {
		if _, err := p.Invoke(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	// Rounds of writes from rotating writers; every sharer must observe
	// the latest value immediately after the write returns.
	for round := 0; round < 5; round++ {
		writer := proxies[round%sharers]
		want := fmt.Sprintf("v%d", round+1)
		if _, err := writer.Invoke(ctx, "put", "k", want); err != nil {
			t.Fatal(err)
		}
		for i, p := range proxies {
			res, err := p.Invoke(ctx, "get", "k")
			if err != nil {
				t.Fatal(err)
			}
			if res[0] != want {
				t.Fatalf("round %d: sharer %d read %v, want %s", round, i, res[0], want)
			}
		}
	}
}

func TestBypassWriterInvalidatesRemoteCaches(t *testing.T) {
	// A co-located client (bypass proxy) writes with no marshalling at
	// all — but its write must still go through the coordination wrapper
	// and invalidate remote caching proxies.
	w := newCacheWorld(t, 1)
	ctx := context.Background()
	local, err := w.server.Import(w.ref) // bypass: same context as export
	if err != nil {
		t.Fatal(err)
	}
	remote := w.proxy(t, 0)
	if _, err := local.Invoke(ctx, "put", "k", "old"); err != nil {
		t.Fatal(err)
	}
	if res, _ := remote.Invoke(ctx, "get", "k"); res[0] != "old" {
		t.Fatal("warm failed")
	}
	if _, err := local.Invoke(ctx, "put", "k", "new"); err != nil {
		t.Fatal(err)
	}
	res, err := remote.Invoke(ctx, "get", "k")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "new" {
		t.Errorf("remote read %v after co-located write, want \"new\"", res[0])
	}
}

func TestRegisterObservesPresentedVersion(t *testing.T) {
	// A proxy that has already seen version V (from a prior coordinator
	// incarnation) presents it at registration; the coordinator's Lamport
	// clock must jump past it so new writes supersede old copies.
	w := newCacheWorld(t, 1)
	h, err := decodeHint(w.ref.Hint)
	if err != nil {
		t.Fatal(err)
	}
	// Craft a registration presenting a high version directly.
	cb := wire.ObjAddr{Addr: w.clients[0].Addr(), Object: 999}
	payload := wire.AppendUvarint(wire.AppendObjAddr(nil, cb), 1000)
	ctrl := wire.ObjAddr{Addr: w.ref.Target.Addr, Object: h.Ctrl}
	reply, err := w.clients[0].Client().Call(context.Background(), ctrl, kindRegister, payload)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := wire.Uvarint(reply)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1000 {
		t.Errorf("register reply version = %d, want >= presented 1000", v)
	}
	// And the next write mints a version beyond it.
	p := w.proxy(t, 0)
	if _, err := p.Invoke(context.Background(), "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	cs, _ := w.factory.CoordinatorStatsFor(w.ref.Target)
	if cs.Version <= 1000 {
		t.Errorf("post-write version = %d, want > 1000", cs.Version)
	}
}

func TestHintRoundTrip(t *testing.T) {
	in := hint{Ctrl: 42, Mode: ModeLease, LeaseTTL: 250 * time.Millisecond,
		Reads: []string{"a", "b", "c"}, StaleWindow: 3 * time.Second}
	out, err := decodeHint(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Ctrl != in.Ctrl || out.Mode != in.Mode || out.LeaseTTL != in.LeaseTTL ||
		len(out.Reads) != 3 || out.Reads[2] != "c" || out.StaleWindow != in.StaleWindow {
		t.Errorf("round-trip = %+v", out)
	}
	// StaleWindow is a trailing field for compatibility: a hint encoded by
	// a pre-brownout exporter (nothing after the read list) must decode
	// with a zero window, and every other truncation must error, not panic.
	buf := in.encode()
	oldLen := len(buf) - len(wire.AppendUvarint(nil, uint64(in.StaleWindow)))
	for i := 0; i < len(buf); i++ {
		got, err := decodeHint(buf[:i])
		if i == oldLen {
			if err != nil || got.StaleWindow != 0 {
				t.Errorf("pre-brownout hint: err=%v StaleWindow=%v, want nil/0", err, got.StaleWindow)
			}
			continue
		}
		if err == nil {
			t.Errorf("decodeHint accepted %d-byte prefix", i)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeCallback.String() != "callback" || ModeLease.String() != "lease" || Mode(9).String() != "mode(9)" {
		t.Error("Mode.String mismatch")
	}
}

func TestProtectedCacheCoordinatorDeniesForgery(t *testing.T) {
	// Protection extends to the private caching protocol: a proxy built
	// from a forged reference (correct hint, wrong capability) is denied
	// on both its read and write paths.
	net := netsim.New()
	t.Cleanup(net.Close)
	factory := NewFactory([]string{"get"})
	mk := func(id wire.NodeID) *core.Runtime {
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
		rt := core.NewRuntime(ktx)
		rt.RegisterProxyType("KV", factory)
		return rt
	}
	server, client := mk(1), mk(2)
	ref, err := server.Export(newKV(), "KV", core.Protected())
	if err != nil {
		t.Fatal(err)
	}
	legit, err := client.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legit.Invoke(context.Background(), "put", "k", "v"); err != nil {
		t.Fatalf("legit write: %v", err)
	}

	forged := ref
	forged.Cap = ref.Cap ^ 1
	h, err := decodeHint(forged.Hint)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := newProxy(client, forged, h)
	if err != nil {
		t.Fatal(err)
	}
	var ie *core.InvokeError
	if _, err := fp.Invoke(context.Background(), "get", "k"); !errors.As(err, &ie) || ie.Code != core.CodeDenied {
		t.Errorf("forged cached read = %v, want CodeDenied", err)
	}
	if _, err := fp.Invoke(context.Background(), "put", "k", "evil"); !errors.As(err, &ie) || ie.Code != core.CodeDenied {
		t.Errorf("forged write = %v, want CodeDenied", err)
	}
}

// TestInvalidationDuringRegister delivers an invalidation after the proxy
// has installed its callback object and before it has read the register
// reply. The invalidation is one-way, so nothing orders handleInvalidate
// against the goroutine in newProxy: both must take p.mu, and the newer
// version must survive whichever of the two lands last.
func TestInvalidationDuringRegister(t *testing.T) {
	w := newCacheWorld(t, 1)
	const replyVersion, invVersion = 5, 6
	ctrl := w.server.Kernel().Register(kernel.HandlerFunc(func(ktx *kernel.Context, f *wire.Frame) {
		cb, _, err := wire.DecodeObjAddr(f.Payload)
		if err != nil {
			t.Error(err)
			return
		}
		_ = ktx.Send(&wire.Frame{
			Kind:    wire.KindInvalidate,
			Flags:   wire.FlagOneWay,
			ReqID:   ktx.NextReqID(),
			Dst:     cb.Addr,
			Object:  cb.Object,
			Payload: wire.AppendUvarint(nil, invVersion),
		})
		_ = ktx.Respond(f, kindRegister, wire.AppendUvarint(nil, replyVersion))
	}))
	ref := codec.Ref{Target: wire.ObjAddr{Addr: w.server.Addr()}}
	for i := 0; i < 20; i++ {
		p, err := newProxy(w.clients[0], ref, hint{Ctrl: ctrl, Mode: ModeCallback})
		if err != nil {
			t.Fatal(err)
		}
		// Every round's proxy shares one registry counter (same scope).
		deadline := time.Now().Add(2 * time.Second)
		for p.invs.Load() != uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatal("invalidation never arrived")
			}
			time.Sleep(time.Millisecond)
		}
		p.mu.Lock()
		v := p.version
		p.mu.Unlock()
		if v != invVersion {
			t.Fatalf("round %d: version = %d after an invalidation at %d and a register reply at %d", i, v, invVersion, replyVersion)
		}
		w.clients[0].Kernel().Unregister(p.cbObject)
	}
}
