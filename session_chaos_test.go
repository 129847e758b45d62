package repro

// Exactly-once chaos: drive non-idempotent writes (KV incr) through
// session-stamped invocations while crashing primaries, promoting
// successors, rebalancing shards, and restarting incarnations on top of
// durable logs. The invariants are the ones DESIGN.md promises for the
// session layer: an acknowledged write applies exactly once no matter
// how many times its (sid, seq) identity is retransmitted or where the
// retransmission lands (old primary, promoted successor, reassumed
// incarnation, new shard owner); a retry that outlived the dedup window
// is refused with CodeSessionExpired instead of silently re-applied;
// and the write-ahead log never records the same identity twice.
// Seeded like the rest of the suite: CHAOS_SEED=<n> replays a failing
// schedule exactly.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/wire"
)

// sessionRepWorld is a chaos cluster running a replicated KV whose
// runtimes mint sessions (core.WithSessions), with per-node WAL stores
// captured for the duplicate audit.
type sessionRepWorld struct {
	c       *chaosCluster
	factory *replica.Factory
	ref     codec.Ref

	storeMu sync.Mutex
	stores  map[wire.Addr]*persist.MemStore
}

func newSessionRepWorld(t *testing.T, n int) *sessionRepWorld {
	t.Helper()
	w := &sessionRepWorld{stores: make(map[wire.Addr]*persist.MemStore)}
	w.c = newChaosCluster(t, n,
		[]rpc.ClientOption{rpc.WithRetryInterval(5 * time.Millisecond), rpc.WithMaxAttempts(60)},
		core.WithSessions())
	w.factory = replica.NewFactory(bench.KVReads(),
		func() replica.StateMachine { return bench.NewKV() },
		replica.WithDeliverTimeout(80*time.Millisecond),
		replica.WithSyncInterval(25*time.Millisecond),
		replica.WithSnapshotEvery(8),
		replica.WithName("sess-kv"),
		replica.WithWALStore(func(node wire.Addr) persist.LogStore {
			w.storeMu.Lock()
			defer w.storeMu.Unlock()
			if s, ok := w.stores[node]; ok {
				return s
			}
			s := persist.NewMemStore(nil)
			w.stores[node] = s
			return s
		}))
	for _, rt := range w.c.rts {
		rt.RegisterProxyType("SessChaosKV", w.factory)
	}
	ref, err := w.c.rts[0].Export(bench.NewKV(), "SessChaosKV")
	if err != nil {
		t.Fatal(err)
	}
	w.ref = ref
	return w
}

func (w *sessionRepWorld) proxy(t *testing.T, i int) *replica.Proxy {
	t.Helper()
	p, err := w.c.rts[i].Import(w.ref)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*replica.Proxy)
}

// TestChaosSessionExactlyOncePromotion crashes the primary mid-load and
// asserts the exactly-once story across the failover: every write is an
// incr of its own key (so any duplicate apply is visible as a value of
// 2), pre-crash identities replayed on the promoted successor are
// answered from the inherited dedup table without re-execution, writes
// issued during the outage ride the session retry loop through the
// promotion under one identity, and the new primary's WAL never logs an
// identity twice.
func TestChaosSessionExactlyOncePromotion(t *testing.T) {
	leakCheck(t)
	seed := chaosSeed()
	w := newSessionRepWorld(t, 4)
	ctx := context.Background()
	p2 := w.proxy(t, 1) // first joiner: the deterministic successor
	p3 := w.proxy(t, 2)
	proxies := []*replica.Proxy{p2, p3}

	// One session per logical write: sid encodes the write number, so a
	// write's identity is stable across every test-level retry while the
	// reply window can never push it out.
	const sidBase = uint64(0x5E55) << 32
	acked := make(map[string]bool)
	var n uint64
	write := func(p *replica.Proxy, minted bool) bool {
		n++
		key := fmt.Sprintf("w%d", n)
		wctx := ctx
		if !minted {
			wctx = core.ContextWithSession(ctx, sidBase+n, 1)
		}
		res, err := p.Invoke(wctx, "incr", key)
		if err != nil {
			return false
		}
		if res[0] != int64(1) {
			t.Fatalf("first ack of %s = %v, want 1 (duplicate apply)", key, res[0])
		}
		acked[key] = true
		return true
	}

	// Seeded pre-crash load; every write must succeed while the group is
	// whole.
	preWrites := uint64(12 + seed%8)
	for i := uint64(0); i < preWrites; i++ {
		if !write(proxies[i%2], false) {
			t.Fatalf("pre-crash write %d failed", i)
		}
	}
	// A client retransmission against the healthy primary: same identity,
	// cached reply, no second apply.
	res, err := p2.Invoke(core.ContextWithSession(ctx, sidBase+3, 1), "incr", "w3")
	if err != nil {
		t.Fatalf("healthy retransmission: %v", err)
	}
	if res[0] != int64(1) {
		t.Fatalf("healthy retransmission reply = %v, want cached 1", res[0])
	}

	w.c.net.Crash(1)

	// Keep minted-session writes running through the outage: each Invoke
	// allocates one identity and retries it internally until the
	// successor promotes and the retransmission lands on the new primary.
	chaosWaitFor(t, 20*time.Second, "successor to promote and accept writes", func() bool {
		write(p2, true)
		return p2.IsPrimary()
	})
	if got := p2.Epoch(); got < 2 {
		t.Fatalf("promoted epoch = %d, want >= 2", got)
	}
	chaosWaitFor(t, 10*time.Second, "survivor to adopt the new primary", func() bool {
		return p3.Epoch() >= 2 && !p3.IsPrimary()
	})

	// Pre-crash identities retransmitted after the promotion: the
	// successor inherited the dedup state, so both the in-process path
	// (p2 is the primary now) and the remote path (p3) answer from cache.
	for i, p := range proxies {
		key := fmt.Sprintf("w%d", i+1)
		res, err := p.Invoke(core.ContextWithSession(ctx, sidBase+uint64(i)+1, 1), "incr", key)
		if err != nil {
			t.Fatalf("post-promotion retransmission of %s: %v", key, err)
		}
		if res[0] != int64(1) {
			t.Fatalf("post-promotion retransmission of %s = %v, want cached 1", key, res[0])
		}
	}

	// Post-failover load through both survivors, alternating minted and
	// explicit identities; all must ack.
	for i := 0; i < 8; i++ {
		if !write(proxies[i%2], i%2 == 0) {
			t.Fatalf("post-failover write failed")
		}
	}

	// Zero duplicate applies, zero lost acked writes: every attempted key
	// is at most 1 everywhere, every acked key exactly 1.
	for _, p := range proxies {
		kv := p.Local().(*bench.KV)
		chaosWaitFor(t, 5*time.Second, "survivor to hold every acked write", func() bool {
			for key := range acked {
				if kv.Get(key) != 1 {
					return false
				}
			}
			return true
		})
		for i := uint64(1); i <= n; i++ {
			key := fmt.Sprintf("w%d", i)
			if got := kv.Get(key); got > 1 {
				t.Fatalf("key %s = %d on a survivor: duplicate apply", key, got)
			} else if acked[key] && got != 1 {
				t.Fatalf("acked key %s = %d on a survivor, want 1", key, got)
			}
		}
	}

	// The new primary's WAL audit: the promotion baseline snapshot plus
	// the logged suffix reconstructs every acked write at exactly 1, no
	// identity is logged twice (neither across the snapshot boundary nor
	// within the suffix), and the dedup record stream is duplicate-free.
	w.storeMu.Lock()
	store := w.stores[w.c.rts[1].Addr()]
	w.storeMu.Unlock()
	if store == nil {
		t.Fatal("promoted primary opened no WAL store")
	}
	wal, err := persist.OpenWAL(store)
	if err != nil {
		t.Fatalf("open wal for audit: %v", err)
	}
	audit := bench.NewKV()
	tab := session.NewTable(session.Config{})
	if _, _, state, ok := wal.LastSnapshot(); ok {
		dedup, svcState := replica.SplitSnapshotState(state)
		if dedup != nil {
			if err := tab.Restore(dedup); err != nil {
				t.Fatalf("restore wal dedup snapshot: %v", err)
			}
		}
		if err := audit.Restore(svcState); err != nil {
			t.Fatalf("restore wal snapshot: %v", err)
		}
	}
	for _, r := range wal.Records() {
		sid, cseq, request := wire.SplitSessionHeader(r.Payload)
		if sid != 0 {
			if v, _ := tab.Peek(sid, cseq); v == session.Replay {
				t.Fatalf("identity (%#x, %d) logged twice in the new primary's WAL", sid, cseq)
			}
			tab.Commit(sid, cseq, wire.KindReply, false, nil)
		}
		_, method, args, err := core.DecodeRequest(w.c.rts[1].Decoder(), request)
		if err != nil {
			t.Fatalf("wal record %d undecodable: %v", r.Seq, err)
		}
		if _, err := audit.Invoke(ctx, method, args); err != nil {
			t.Fatalf("wal replay of %q: %v", method, err)
		}
	}
	seenDedup := make(map[[2]uint64]bool)
	for _, d := range wal.DedupRecords() {
		id := [2]uint64{d.SID, d.CSeq}
		if seenDedup[id] {
			t.Fatalf("dedup record (%#x, %d) appears twice", d.SID, d.CSeq)
		}
		seenDedup[id] = true
	}
	for key := range acked {
		if got := audit.Get(key); got != 1 {
			t.Fatalf("acked key %s = %d in WAL reconstruction, want 1", key, got)
		}
	}
	t.Logf("seed %d: %d writes attempted, %d acked, promotion epoch %d", seed, n, len(acked), p2.Epoch())
}

// TestChaosSessionExpiredRetry pins the bounded-window contract at the
// kernel layer: a node whose dedup table keeps one reply per session
// answers the latest identity from cache, but a retry that slid below
// the raised floor is refused with CodeSessionExpired — never silently
// re-applied.
func TestChaosSessionExpiredRetry(t *testing.T) {
	leakCheck(t)
	net := netsim.New(netsim.WithSeed(chaosSeed()))
	t.Cleanup(net.Close)

	tab := session.NewTable(session.Config{RepliesPerSession: 1})
	ep1, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	node1 := kernel.NewNode(ep1, kernel.WithSessions(tab))
	t.Cleanup(func() { node1.Close() })
	ktx1, err := node1.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewRuntime(ktx1)

	ep2, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	ktx2, err := kernelNodeForTest(t, ep2).NewContext()
	if err != nil {
		t.Fatal(err)
	}
	cli := core.NewRuntime(ktx2)
	t.Cleanup(cli.CloseProxies)

	kv := bench.NewKV()
	ref, err := srv.Export(kv, "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cli.Import(ref)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const sid = uint64(0xBEEF)
	incr := func(seq uint64) ([]any, error) {
		return p.Invoke(core.ContextWithSession(ctx, sid, seq), "incr", "k")
	}
	if res, err := incr(1); err != nil || res[0] != int64(1) {
		t.Fatalf("seq 1 = %v, %v", res, err)
	}
	if res, err := incr(2); err != nil || res[0] != int64(2) {
		t.Fatalf("seq 2 = %v, %v", res, err)
	}
	// Retry of the latest identity: cached reply, no handler dispatch.
	if res, err := incr(2); err != nil || res[0] != int64(2) {
		t.Fatalf("retry of seq 2 = %v, %v, want cached 2", res, err)
	}
	if got := kv.Get("k"); got != 2 {
		t.Fatalf("k = %d after cached replay, want 2 (replay re-dispatched)", got)
	}
	// Retry of the identity the one-reply window dropped: the floor rose
	// past it, and the only honest answer is "outcome unknown".
	_, err = incr(1)
	var ie *core.InvokeError
	if !errors.As(err, &ie) || ie.Code != core.CodeSessionExpired {
		t.Fatalf("retry below floor = %v, want CodeSessionExpired", err)
	}
	if got := kv.Get("k"); got != 2 {
		t.Fatalf("k = %d after expired retry, want 2 (expired retry applied)", got)
	}
	if st := tab.Stats(); st.Hits < 1 || st.Expired < 1 {
		t.Fatalf("table stats = %+v, want hits and expired recorded", st)
	}
}

// TestChaosSessionShardHandoff rebalances a sharded keyspace between two
// plain guards while a session's identities are retransmitted: dedup
// entries travel with their keys' handoff, so a retry of a moved key's
// identity is answered from cache by the NEW owner, and no retry — moved
// or not — ever applies twice.
func TestChaosSessionShardHandoff(t *testing.T) {
	leakCheck(t)
	seed := chaosSeed()
	c := newChaosCluster(t, 4,
		[]rpc.ClientOption{rpc.WithRetryInterval(5 * time.Millisecond), rpc.WithMaxAttempts(20)})
	spec := bench.KVShardSpec()
	sf := shard.NewFactory(spec, shard.WithName("sess-chaos"))
	router := shard.NewRouter(c.rts[0], sf)
	ctx := context.Background()

	kva, kvb := bench.NewKV(), bench.NewKV()
	refA, err := c.rts[1].Export(shard.NewGuard("a", spec, kva), "SessShardGuard")
	if err != nil {
		t.Fatal(err)
	}
	actx, cancel := context.WithTimeout(ctx, 20*time.Second)
	err = router.AddMember(actx, "a", refA)
	cancel()
	if err != nil {
		t.Fatalf("admit a: %v", err)
	}
	ref, err := c.rts[0].ExportVia(sf, router, "SessShardedKV")
	if err != nil {
		t.Fatal(err)
	}
	c.rts[3].RegisterProxyType("SessShardedKV", shard.NewFactory(shard.Spec{}))
	pp, err := c.rts[3].Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	p := pp.(*shard.Proxy)

	// One session, one seq per key: every identity maps to exactly one
	// incr of one key.
	const sid = uint64(0xC0FFEE)
	n := uint64(12 + seed%6)
	for i := uint64(1); i <= n; i++ {
		res, err := p.Invoke(core.ContextWithSession(ctx, sid, i), "incr", fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("write k%d: %v", i, err)
		}
		if res[0] != int64(1) {
			t.Fatalf("write k%d = %v, want 1", i, res[0])
		}
	}

	// Admit the second guard: the rebalance hands a slice of the keyspace
	// — values AND their dedup entries — from a to b.
	refB, err := c.rts[2].Export(shard.NewGuard("b", spec, kvb), "SessShardGuard")
	if err != nil {
		t.Fatal(err)
	}
	actx, cancel = context.WithTimeout(ctx, 20*time.Second)
	err = router.AddMember(actx, "b", refB)
	cancel()
	if err != nil {
		t.Fatalf("admit b: %v", err)
	}
	moved := len(kvb.Keys())
	if moved == 0 {
		t.Fatal("no keys moved to b; ring distribution degenerate")
	}

	// Retransmit every identity through the sharded proxy: moved keys
	// route to b (whose imported dedup entries answer), unmoved keys to a.
	// Every reply must be the cached 1; every value must stay 1.
	for i := uint64(1); i <= n; i++ {
		key := fmt.Sprintf("k%d", i)
		res, err := p.Invoke(core.ContextWithSession(ctx, sid, i), "incr", key)
		if err != nil {
			t.Fatalf("retry %s after rebalance: %v", key, err)
		}
		if res[0] != int64(1) {
			t.Fatalf("retry %s = %v, want cached 1 (duplicate apply)", key, res[0])
		}
		rctx := context.Background()
		got, err := p.Invoke(rctx, "get", key)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if got[0] != int64(1) {
			t.Fatalf("%s = %v after retry, want 1", key, got[0])
		}
	}
	// Each key lives on exactly one member, at exactly 1.
	if total := len(kva.Keys()) + len(kvb.Keys()); total != int(n) {
		t.Fatalf("keys across members = %d, want %d", total, n)
	}
	t.Logf("seed %d: %d keys written, %d handed off, all retries cached", seed, n, moved)
}

// TestChaosSessionWALReassumption crashes an incarnation and re-exports
// on top of its surviving log store: the dedup table is rebuilt from the
// WAL (the snapshot's baseline plus per-record identities), so a client
// retransmission that outlived the crash is answered from cache by the
// next incarnation instead of re-applied.
func TestChaosSessionWALReassumption(t *testing.T) {
	leakCheck(t)
	seed := chaosSeed()
	store := persist.NewMemStore(nil)
	factory := replica.NewFactory(bench.KVReads(),
		func() replica.StateMachine { return bench.NewKV() },
		replica.WithSnapshotEvery(3),
		replica.WithName("sess-wal"),
		replica.WithWALStore(func(wire.Addr) persist.LogStore { return store }))

	mkWorld := func() (server, client *core.Runtime, stop func()) {
		net := netsim.New(netsim.WithSeed(seed))
		var closers []func()
		mk := func(id wire.NodeID) *core.Runtime {
			ep, err := net.Attach(id)
			if err != nil {
				t.Fatal(err)
			}
			node := kernel.NewNode(ep)
			closers = append(closers, func() { node.Close() })
			ktx, err := node.NewContext()
			if err != nil {
				t.Fatal(err)
			}
			rt := core.NewRuntime(ktx)
			rt.RegisterProxyType("SessWalKV", factory)
			return rt
		}
		server, client = mk(1), mk(2)
		rts := []*core.Runtime{server, client}
		return server, client, func() {
			for _, rt := range rts {
				rt.CloseProxies()
			}
			for _, c := range closers {
				c()
			}
			net.Close()
		}
	}

	ctx := context.Background()
	const sid = uint64(7)
	server1, client1, stop1 := mkWorld()
	svc1 := bench.NewKV()
	ref1, err := server1.Export(svc1, "SessWalKV")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := client1.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	// Five session-stamped incrs: the snapshot at write 3 carries the
	// dedup baseline; writes 4-5 survive as records plus dedup records.
	for i := uint64(1); i <= 5; i++ {
		res, err := p1.Invoke(core.ContextWithSession(ctx, sid, i), "incr", fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if res[0] != int64(1) {
			t.Fatalf("write %d = %v, want 1", i, res[0])
		}
	}
	stop1() // crash the incarnation; only the log store survives

	server2, client2, stop2 := mkWorld()
	defer stop2()
	svc2 := bench.NewKV()
	ref2, err := server2.Export(svc2, "SessWalKV")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := client2.Import(ref2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.(*replica.Proxy).Epoch(); got != 2 {
		t.Errorf("reassumed epoch = %d, want 2", got)
	}
	// Retransmissions that outlived the crash: one identity from inside
	// the snapshot baseline, one rebuilt from the logged suffix. Both are
	// recognized — cached reply, no re-apply.
	for _, seq := range []uint64{2, 5} {
		key := fmt.Sprintf("k%d", seq)
		res, err := p2.Invoke(core.ContextWithSession(ctx, sid, seq), "incr", key)
		if err != nil {
			t.Fatalf("retry of seq %d across restart: %v", seq, err)
		}
		if res[0] != int64(1) {
			t.Fatalf("retry of seq %d = %v, want cached 1", seq, res[0])
		}
		if got := svc2.Get(key); got != 1 {
			t.Fatalf("%s = %d after cross-restart retry, want 1 (duplicate apply)", key, got)
		}
	}
	// A fresh identity keeps the session going in the new incarnation.
	res, err := p2.Invoke(core.ContextWithSession(ctx, sid, 6), "incr", "k6")
	if err != nil || res[0] != int64(1) {
		t.Fatalf("fresh write after restart = %v, %v", res, err)
	}
	t.Logf("seed %d: 5 writes survived the crash, retries of seq 2 and 5 answered from rebuilt dedup state", seed)
}
