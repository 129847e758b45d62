package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/wire"
)

// shardWorld is a simulated deployment: one router node, one node per
// member (plain guard exports reached through the default stub), and
// client runtimes that register the shard factory.
type shardWorld struct {
	t       *testing.T
	mk      func(id wire.NodeID) *core.Runtime
	factory *Factory
	router  *Router

	routerRT *core.Runtime
	stores   map[string]*kvStore
	guards   map[string]*Guard
	refs     map[string]codec.Ref
	clients  []*core.Runtime
	ref      codec.Ref

	nextID wire.NodeID
}

func newShardWorld(t *testing.T, members, nClients int, opts ...FactoryOption) *shardWorld {
	t.Helper()
	net := netsim.New()
	t.Cleanup(net.Close)
	w := &shardWorld{
		t:      t,
		stores: make(map[string]*kvStore),
		guards: make(map[string]*Guard),
		refs:   make(map[string]codec.Ref),
		nextID: 1,
	}
	w.factory = NewFactory(testSpec, append([]FactoryOption{WithName("kv")}, opts...)...)
	w.mk = func(id wire.NodeID) *core.Runtime {
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
		return core.NewRuntime(ktx)
	}
	w.routerRT = w.mk(w.nextID)
	w.nextID++
	w.router = NewRouter(w.routerRT, w.factory)
	for i := 0; i < members; i++ {
		w.addMember(fmt.Sprintf("m%d", i))
	}
	ref, err := w.routerRT.ExportVia(w.factory, w.router, "ShardedKV")
	if err != nil {
		t.Fatal(err)
	}
	w.ref = ref
	for i := 0; i < nClients; i++ {
		rt := w.mk(w.nextID)
		w.nextID++
		// A zero-spec client factory: the spec travels in the reference
		// hint, so importing runtimes need no keyspace knowledge.
		rt.RegisterProxyType("ShardedKV", NewFactory(Spec{}))
		w.clients = append(w.clients, rt)
	}
	return w
}

// addMember stands up a new member node (plain guard export) and admits
// it to the deployment.
func (w *shardWorld) addMember(name string) {
	w.t.Helper()
	rt := w.mk(w.nextID)
	w.nextID++
	st := newKVStore()
	g := NewGuard(name, testSpec, st)
	ref, err := rt.Export(g, "KVMember")
	if err != nil {
		w.t.Fatal(err)
	}
	w.stores[name] = st
	w.guards[name] = g
	w.refs[name] = ref
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.router.AddMember(ctx, name, ref); err != nil {
		w.t.Fatalf("add member %s: %v", name, err)
	}
}

func (w *shardWorld) proxy(t *testing.T, i int) *Proxy {
	t.Helper()
	p, err := w.clients[i].Import(w.ref)
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := p.(*Proxy)
	if !ok {
		t.Fatalf("import produced %T, want *shard.Proxy", p)
	}
	return sp
}

// waitFor polls until cond holds (the handoff's drop step is async).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestShardRoutesToOwners(t *testing.T) {
	w := newShardWorld(t, 3, 1)
	p := w.proxy(t, 0)
	ctx := context.Background()
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := p.Invoke(ctx, "put", fmt.Sprintf("key-%d", i), int64(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		res, err := p.Invoke(ctx, "get", fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if res[0] != int64(i) {
			t.Fatalf("get %d = %v", i, res[0])
		}
	}
	// Every key landed at exactly its ring owner: no write ever slipped
	// past a guard onto the wrong member.
	ring := NewRing([]string{"m0", "m1", "m2"}, w.factory.vnodes)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		owner := ring.Owner(k)
		if v, ok := w.stores[owner].get(k); !ok || v != int64(i) {
			t.Errorf("key %q missing at owner %s (got %v, %v)", k, owner, v, ok)
		}
		for name, st := range w.stores {
			if name == owner {
				continue
			}
			if _, ok := st.get(k); ok {
				t.Errorf("key %q leaked onto non-owner %s", k, name)
			}
		}
	}
	routes, misroutes := p.Stats()
	if routes == 0 {
		t.Error("route counter never incremented")
	}
	if misroutes != 0 {
		t.Errorf("misroutes = %d on a stable table", misroutes)
	}
}

func TestShardScatterGatherEndToEnd(t *testing.T) {
	w := newShardWorld(t, 3, 1)
	p := w.proxy(t, 0)
	ctx := context.Background()

	// Multi-key write: key vectors carry the per-key arguments.
	res, err := p.Invoke(ctx, "mput",
		[]any{"a", int64(1)}, []any{"b", int64(2)}, []any{"c", int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("mput result length %d", len(res))
	}
	// Multi-key read: bare keys; a missing key reads its zero value.
	res, err = p.Invoke(ctx, "mget", "a", "b", "zzz")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 0}
	for i, v := range res {
		if v != want[i] {
			t.Errorf("mget[%d] = %v, want %d", i, v, want[i])
		}
	}
	// Partial failure: "fail" errors only for bad- keys; the other slots
	// still carry their results.
	res, err = p.Invoke(ctx, "mfail", "a", "bad-x", "b")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != int64(1) || res[2] != int64(2) {
		t.Errorf("healthy slots = %v, %v, want 1, 2", res[0], res[2])
	}
	ke, ok := AsKeyError(res[1])
	if !ok {
		t.Fatalf("res[1] = %T, want a key error", res[1])
	}
	if ke.Key != "bad-x" {
		t.Errorf("key error names %q, want bad-x", ke.Key)
	}
}

func TestShardMisrouteRefreshesTable(t *testing.T) {
	w := newShardWorld(t, 2, 1)
	p := w.proxy(t, 0)
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "put", "warm", int64(1)); err != nil {
		t.Fatal(err)
	}
	before := p.Epoch()
	if before == 0 {
		t.Fatal("proxy never fetched a table")
	}

	// Grow the deployment behind the proxy's back.
	w.addMember("m2")

	// A key the new ring gives to m2 routes (per the stale table) to an
	// old owner, whose guard refuses with a misroute; the proxy must
	// refresh and re-route without surfacing the error.
	ringNew := NewRing([]string{"m0", "m1", "m2"}, w.factory.vnodes)
	k := ownedKey(t, ringNew, "m2")
	if _, err := p.Invoke(ctx, "put", k, int64(9)); err != nil {
		t.Fatalf("put after membership change: %v", err)
	}
	if p.Epoch() <= before {
		t.Errorf("epoch did not advance past %d after misroute", before)
	}
	if _, misroutes := p.Stats(); misroutes == 0 {
		t.Error("misroute counter never incremented")
	}
	if v, ok := w.stores["m2"].get(k); !ok || v != 9 {
		t.Errorf("key %q at new owner = %v, %v", k, v, ok)
	}
}

func TestShardRebalancePreservesData(t *testing.T) {
	w := newShardWorld(t, 2, 1)
	p := w.proxy(t, 0)
	ctx := context.Background()
	const n = 80
	for i := 0; i < n; i++ {
		if _, err := p.Invoke(ctx, "put", fmt.Sprintf("key-%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.addMember("m2")
	// Every acked write survives the rebalance.
	for i := 0; i < n; i++ {
		res, err := p.Invoke(ctx, "get", fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatalf("get key-%d after rebalance: %v", i, err)
		}
		if res[0] != int64(i) {
			t.Fatalf("key-%d = %v after rebalance", i, res[0])
		}
	}
	// Once the async drop completes, each store holds only keys it owns.
	ring := NewRing([]string{"m0", "m1", "m2"}, w.factory.vnodes)
	waitFor(t, "old owners to drop moved keys", func() bool {
		for name, st := range w.stores {
			for _, k := range st.Keys() {
				if ring.Owner(k) != name {
					return false
				}
			}
		}
		return true
	})
	if len(w.stores["m2"].Keys()) == 0 {
		t.Error("new member received no key ranges")
	}
}

func TestShardRemoveMemberDrains(t *testing.T) {
	w := newShardWorld(t, 3, 1)
	p := w.proxy(t, 0)
	ctx := context.Background()
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := p.Invoke(ctx, "put", fmt.Sprintf("key-%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.router.RemoveMember(ctx, "m2", false); err != nil {
		t.Fatalf("remove m2: %v", err)
	}
	for i := 0; i < n; i++ {
		res, err := p.Invoke(ctx, "get", fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatalf("get key-%d after drain: %v", i, err)
		}
		if res[0] != int64(i) {
			t.Fatalf("key-%d = %v after drain", i, res[0])
		}
	}
	waitFor(t, "retired member to drain", func() bool {
		return len(w.stores["m2"].Keys()) == 0
	})
	// The retired member is fenced: even a protocol step at the committed
	// epoch is refused, so a deposed owner cannot re-enter the handoff.
	_, err := w.guards["m2"].Invoke(ctx, methodKeys, []any{int64(w.router.Epoch())})
	invokeCode(t, err, core.CodeFenced)
}

func TestShardFacadeServesPlainStubs(t *testing.T) {
	w := newShardWorld(t, 2, 0)
	ctx := context.Background()
	// This client never registers the shard factory: its import falls to
	// the default stub, and the router routes server-side.
	rt := w.mk(w.nextID)
	w.nextID++
	p, err := rt.Import(w.ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*Proxy); ok {
		t.Fatal("plain client built a shard proxy — the facade path is untested")
	}
	if _, err := p.Invoke(ctx, "put", "fk", int64(5)); err != nil {
		t.Fatalf("facade put: %v", err)
	}
	res, err := p.Invoke(ctx, "get", "fk")
	if err != nil || res[0] != int64(5) {
		t.Fatalf("facade get = %v, %v", res, err)
	}
	ring := NewRing([]string{"m0", "m1"}, w.factory.vnodes)
	if v, ok := w.stores[ring.Owner("fk")].get("fk"); !ok || v != 5 {
		t.Errorf("facade write did not land on the owner (got %v, %v)", v, ok)
	}
	// Scatter-gather through the facade, with a per-key failure crossing
	// the wire in its lowered struct form.
	res, err = p.Invoke(ctx, "mfail", "fk", "bad-y")
	if err != nil {
		t.Fatalf("facade mfail: %v", err)
	}
	if res[0] != int64(5) {
		t.Errorf("facade mfail[0] = %v, want 5", res[0])
	}
	ke, ok := AsKeyError(res[1])
	if !ok {
		t.Fatalf("facade mfail[1] = %T, want a lowered key error", res[1])
	}
	if ke.Key != "bad-y" {
		t.Errorf("lowered key error names %q, want bad-y", ke.Key)
	}
	// Reserved protocol methods never cross the facade.
	_, err = p.Invoke(ctx, methodFreeze, int64(99), []any{"fk"})
	invokeCode(t, err, core.CodeDenied)
}

func TestShardStatusService(t *testing.T) {
	w := newShardWorld(t, 2, 1)
	ctx := context.Background()
	svc := NewService(w.routerRT)
	res, err := svc.Invoke(ctx, "status", nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := res[0].(string)
	for _, want := range []string{"kv", "m0", "m1"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}

	// Admit a member through the control surface.
	rt := w.mk(w.nextID)
	w.nextID++
	st := newKVStore()
	g := NewGuard("m2", testSpec, st)
	ref, err := rt.Export(g, "KVMember")
	if err != nil {
		t.Fatal(err)
	}
	w.stores["m2"], w.guards["m2"], w.refs["m2"] = st, g, ref
	if _, err := svc.Invoke(ctx, "add", []any{"kv", "m2", ref}); err != nil {
		t.Fatalf("add via service: %v", err)
	}
	if got := w.router.Members(); len(got) != 3 {
		t.Fatalf("members after add = %v", got)
	}
	if _, err := svc.Invoke(ctx, "remove", []any{"kv", "m2"}); err != nil {
		t.Fatalf("remove via service: %v", err)
	}
	if got := w.router.Members(); len(got) != 2 {
		t.Fatalf("members after remove = %v", got)
	}
	// Unknown deployments and malformed refs are refused.
	if _, err := svc.Invoke(ctx, "add", []any{"nope", "m9", ref}); err == nil {
		t.Error("add to unknown shard succeeded")
	}
	if _, err := svc.Invoke(ctx, "add", []any{"kv", "m9", "not-a-ref"}); err == nil {
		t.Error("add with a bogus ref succeeded")
	}
}

func TestShardBootstrapDataSettlesOntoOwners(t *testing.T) {
	// Data loaded into a member before the first table (epoch 0 accepts
	// everything) must settle onto its ring owners at the first rebalance.
	w := newShardWorld(t, 0, 1)
	rt := w.mk(w.nextID)
	w.nextID++
	st := newKVStore()
	g := NewGuard("m0", testSpec, st)
	ctx := context.Background()
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := g.Invoke(ctx, "put", []any{fmt.Sprintf("key-%d", i), int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := rt.Export(g, "KVMember")
	if err != nil {
		t.Fatal(err)
	}
	w.stores["m0"], w.guards["m0"], w.refs["m0"] = st, g, ref
	if err := w.router.AddMember(ctx, "m0", ref); err != nil {
		t.Fatal(err)
	}
	w.addMember("m1")

	p := w.proxy(t, 0)
	for i := 0; i < n; i++ {
		res, err := p.Invoke(ctx, "get", fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatalf("get key-%d: %v", i, err)
		}
		if res[0] != int64(i) {
			t.Fatalf("key-%d = %v after bootstrap rebalance", i, res[0])
		}
	}
	if len(w.stores["m1"].Keys()) == 0 {
		t.Error("no bootstrap keys settled onto the second member")
	}
}

// TestShardFactoryOptionsAndProxyLifecycle exercises the factory options
// (virtual-node count and scatter limit travel in the reference hint)
// and the proxy's Ref/Close contract.
func TestShardFactoryOptionsAndProxyLifecycle(t *testing.T) {
	w := newShardWorld(t, 2, 1, WithVirtualNodes(32), WithScatterLimit(3), WithAutoRemove())
	p := w.proxy(t, 0)
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "put", "k", int64(1)); err != nil {
		t.Fatal(err)
	}
	if got := p.Ref(); got.Target != w.ref.Target {
		t.Fatalf("proxy ref targets %v, want %v", got.Target, w.ref.Target)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, "get", "k"); err != core.ErrProxyClosed {
		t.Fatalf("invoke after close: %v, want ErrProxyClosed", err)
	}
	ke := &KeyError{Key: "k", Err: core.NoSuchMethod("zap")}
	if msg := ke.Error(); !strings.Contains(msg, `"k"`) || !strings.Contains(msg, "zap") {
		t.Fatalf("KeyError.Error() = %q", msg)
	}
}

// TestShardTableFetchIsNotTheInvocation: the routing-table fetch a
// stamped invocation triggers travels under the invocation's ctx but not
// under its exactly-once identity — the router's node must never cache
// the table as the reply to (session, seq), or a later presentation of
// the identity to that node would be answered with it.
func TestShardTableFetchIsNotTheInvocation(t *testing.T) {
	w := newShardWorld(t, 2, 1)
	p := w.proxy(t, 0)
	const sid, seq = 0x5E55, 1
	ctx := core.ContextWithSession(context.Background(), sid, seq)
	if _, err := p.Invoke(ctx, "put", "k", int64(1)); err != nil { // first use fetches the table
		t.Fatal(err)
	}
	if p.Epoch() == 0 {
		t.Fatal("proxy never fetched a table")
	}
	if v, _ := w.routerRT.Kernel().Node().SessionTable().Peek(sid, seq); v != session.Fresh {
		t.Errorf("router node holds verdict %v for the invocation's identity, want fresh", v)
	}
	if got, _ := core.SessionFromContext(core.ContextWithSession(ctx, 0, 0)); got != 0 {
		t.Errorf("ContextWithSession(ctx, 0, 0) kept session %#x", got)
	}
}
