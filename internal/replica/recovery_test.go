package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// recWorld is a cluster tuned for fast failure detection: short rpc
// retries, short delivery timeout, short repair interval.
type recWorld struct {
	net     *netsim.Network
	factory *Factory
	svc     *regService
	ref     codec.Ref
	server  *core.Runtime
	clients []*core.Runtime
	stores  map[wire.Addr]*persist.MemStore
}

func newRecWorld(t *testing.T, nClients int, opts ...FactoryOption) *recWorld {
	t.Helper()
	w := &recWorld{
		net:    netsim.New(),
		svc:    newReg(),
		stores: make(map[wire.Addr]*persist.MemStore),
	}
	t.Cleanup(w.net.Close)
	base := []FactoryOption{
		WithDeliverTimeout(80 * time.Millisecond),
		WithSyncInterval(25 * time.Millisecond),
		WithWALStore(func(node wire.Addr) persist.LogStore {
			// One durable store per node, shared across incarnations, so
			// tests can audit the log after the fact.
			if s, ok := w.stores[node]; ok {
				return s
			}
			s := persist.NewMemStore(nil)
			w.stores[node] = s
			return s
		}),
	}
	w.factory = NewFactory(readMethods, func() StateMachine { return newReg() }, append(base, opts...)...)
	mk := func(id wire.NodeID) *core.Runtime {
		ep, err := w.net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		node := kernel.NewNode(ep)
		t.Cleanup(func() { node.Close() })
		ktx, err := node.NewContext()
		if err != nil {
			t.Fatal(err)
		}
		// The retry budget (~300ms) must outlive the primary's delivery
		// timeout: a write stalls for one eviction window before it is
		// acknowledged. A dead node still fails conclusively (retries
		// exhausted) well inside the repair probe's timeout.
		rt := core.NewRuntime(ktx,
			core.WithClient(rpc.NewClient(ktx, rpc.WithRetryInterval(5*time.Millisecond), rpc.WithMaxAttempts(60))))
		rt.RegisterProxyType("Registers", w.factory)
		return rt
	}
	w.server = mk(1)
	for i := 0; i < nClients; i++ {
		w.clients = append(w.clients, mk(wire.NodeID(i+2)))
	}
	ref, err := w.server.Export(w.svc, "Registers")
	if err != nil {
		t.Fatal(err)
	}
	w.ref = ref
	return w
}

func (w *recWorld) proxy(t *testing.T, i int) *Proxy {
	t.Helper()
	p, err := w.clients[i].Import(w.ref)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*Proxy)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEvictedReplicaRejoins(t *testing.T) {
	// Regression for the permanent-eviction bug: a replica evicted for
	// being slow (here: partitioned) but still alive must rejoin through
	// its repair loop and converge, not stay stale forever.
	w := newRecWorld(t, 2)
	ctx := context.Background()
	p2, p3 := w.proxy(t, 0), w.proxy(t, 1)
	if _, err := p2.Invoke(ctx, "set", "k", int64(1)); err != nil {
		t.Fatal(err)
	}

	w.net.Partition(1, 3)
	// These writes evict the partitioned replica (delivery times out) and
	// must still succeed for everyone else.
	for i := int64(2); i <= 4; i++ {
		if _, err := p2.Invoke(ctx, "set", "k", i); err != nil {
			t.Fatalf("write %d with partitioned replica: %v", i, err)
		}
	}
	if got := p3.Local().(*regService).get("k"); got == 4 {
		t.Fatal("partitioned replica saw the write — partition did not bite")
	}

	w.net.Heal(1, 3)
	waitFor(t, 3*time.Second, "evicted replica to rejoin and converge", func() bool {
		return p3.Local().(*regService).get("k") == 4
	})
	// And it is a full member again: the next write reaches it synchronously.
	if _, err := p2.Invoke(ctx, "set", "k", int64(5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "rejoined replica to apply new writes", func() bool {
		return p3.Local().(*regService).get("k") == 5
	})
}

func TestCrashedReplicaRejoinsViaSnapshot(t *testing.T) {
	// A replica whose node crashes misses enough writes that the log is
	// compacted past its position: rejoin must fall back to a full
	// snapshot transfer and still converge.
	w := newRecWorld(t, 2, WithSnapshotEvery(4))
	ctx := context.Background()
	p2, p3 := w.proxy(t, 0), w.proxy(t, 1)
	_ = p3

	w.net.Crash(3)
	for i := int64(1); i <= 10; i++ {
		if _, err := p2.Invoke(ctx, "set", fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatalf("write %d with crashed replica: %v", i, err)
		}
	}
	w.net.Restart(3)
	waitFor(t, 3*time.Second, "restarted replica to converge", func() bool {
		res, err := p3.Invoke(ctx, "sum")
		return err == nil && res[0] == int64(55)
	})
	if got := p3.AppliedSeq(); got != p2.AppliedSeq() {
		t.Errorf("applied seq after rejoin: %d vs %d", got, p2.AppliedSeq())
	}
}

func TestPrimaryCrashPromotesSuccessor(t *testing.T) {
	// The tentpole invariant: the primary's node dies mid-group, the
	// deterministic successor (first joiner) promotes itself under a new
	// epoch, survivors adopt it, writes flow again, no acked write is
	// lost, and the deposed primary is fenced.
	w := newRecWorld(t, 2)
	ctx := context.Background()
	p2, p3 := w.proxy(t, 0), w.proxy(t, 1)
	for i := int64(1); i <= 5; i++ {
		if _, err := p3.Invoke(ctx, "set", fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	// Let a sync round distribute the two-member view before the crash.
	waitFor(t, 2*time.Second, "views to include both members", func() bool {
		p2.mu.Lock()
		n := len(p2.view)
		p2.mu.Unlock()
		return n == 2
	})

	// Isolate (not kill) the primary so it survives as a zombie for the
	// fencing check below.
	w.net.Partition(1, 2)
	w.net.Partition(1, 3)

	waitFor(t, 5*time.Second, "successor to promote", p2.IsPrimary)
	if got := p2.Epoch(); got != 2 {
		t.Errorf("promoted epoch = %d, want 2", got)
	}
	waitFor(t, 5*time.Second, "survivor to adopt the new primary", func() bool {
		return p3.Epoch() == 2 && !p3.IsPrimary()
	})

	// No acked write was lost across the failover.
	res, err := p3.Invoke(ctx, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != int64(15) {
		t.Errorf("post-failover sum = %v, want 15", res[0])
	}
	// Writes flow again, through both the promoted proxy and the adopted
	// survivor, and replicate between them.
	if _, err := p2.Invoke(ctx, "set", "k6", int64(6)); err != nil {
		t.Fatalf("write on promoted proxy: %v", err)
	}
	if _, err := p3.Invoke(ctx, "set", "k7", int64(7)); err != nil {
		t.Fatalf("write on adopted survivor: %v", err)
	}
	waitFor(t, 2*time.Second, "post-failover writes to replicate", func() bool {
		return p3.Local().(*regService).get("k6") == 6 &&
			p2.Local().(*regService).get("k7") == 7
	})

	// The new primary's write-ahead log alone reconstructs every acked
	// write (durability before acknowledgement held across promotion).
	wal, err := persist.OpenWAL(w.stores[w.clients[0].Addr()])
	if err != nil {
		t.Fatal(err)
	}
	rec := newReg()
	if _, _, state, ok := wal.LastSnapshot(); ok {
		_, svcState := splitSnapshot(state)
		if err := rec.Restore(svcState); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range wal.Records() {
		_, method, args, err := core.DecodeRequest(w.clients[0].Decoder(), r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Invoke(ctx, method, args); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 7; i++ {
		if got := rec.get(fmt.Sprintf("k%d", i)); got != i {
			t.Errorf("WAL replay k%d = %d, want %d", i, got, i)
		}
	}

	// Heal the partition: the deposed primary is a zombie. Its next write
	// attempt is fenced by the members and must come back CodeFenced —
	// never acknowledged, never retried onto the new group.
	w.net.Heal(1, 2)
	w.net.Heal(1, 3)
	h, err := decodeRepHint(w.ref.Hint)
	if err != nil {
		t.Fatal(err)
	}
	oldCtrl := wire.ObjAddr{Addr: w.ref.Target.Addr, Object: h.Ctrl}
	raw, err := core.EncodeRequest(w.ref.Cap, "set", []any{"zz", int64(99)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.clients[1].Client().Call(ctx, oldCtrl, kindWrite, raw)
	var ie *core.InvokeError
	if !errors.As(core.RemoteToInvokeError("set", err), &ie) || ie.Code != core.CodeFenced {
		t.Fatalf("write to deposed primary = %v, want CodeFenced", err)
	}
	// Once fenced, the deposed primary refuses everything, joins included.
	_, err = w.clients[1].Client().Call(ctx, oldCtrl, kindSync,
		append(wire.AppendObjAddr(nil, p3.member.Self()), wire.AppendUvarint(wire.AppendUvarint(nil, 1), 0)...))
	if !errors.As(core.RemoteToInvokeError("sync", err), &ie) || ie.Code != core.CodeFenced {
		t.Fatalf("sync to deposed primary = %v, want CodeFenced", err)
	}
	// The fenced write never leaked into the live group.
	if got := p2.Local().(*regService).get("zz"); got != 0 {
		t.Errorf("fenced write visible in new group: %d", got)
	}
}

func TestExportReassumesFromWAL(t *testing.T) {
	// A primary restarted on top of a durable log store reassumes the
	// group: state is rebuilt from snapshot + suffix and the sequencer
	// continues at the next epoch.
	store := persist.NewMemStore(nil)
	factory := NewFactory(readMethods, func() StateMachine { return newReg() },
		WithSnapshotEvery(3),
		WithWALStore(func(wire.Addr) persist.LogStore { return store }))

	// mkWorld builds one incarnation: a server node and one client node.
	mkWorld := func() (server, client *core.Runtime, stop func()) {
		net := netsim.New()
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
			rt.RegisterProxyType("Registers", factory)
			return rt
		}
		server, client = mk(1), mk(2)
		return server, client, func() {
			for _, c := range closers {
				c()
			}
			net.Close()
		}
	}

	ctx := context.Background()
	server1, client1, stop1 := mkWorld()
	svc1 := newReg()
	ref1, err := server1.Export(svc1, "Registers")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := client1.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	// Each write is WAL-appended before acknowledgement.
	for i := int64(1); i <= 7; i++ {
		if _, err := p1.Invoke(ctx, "set", fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	stop1() // crash the incarnation; only the log store survives

	server2, client2, stop2 := mkWorld()
	defer stop2()
	svc2 := newReg()
	ref2, err := server2.Export(svc2, "Registers")
	if err != nil {
		t.Fatal(err)
	}
	// The fresh service was rebuilt from the log before the export
	// completed — snapshot (compaction ran at write 3 and 6) plus suffix.
	for i := int64(1); i <= 7; i++ {
		if got := svc2.get(fmt.Sprintf("k%d", i)); got != i {
			t.Errorf("reassumed k%d = %d, want %d", i, got, i)
		}
	}
	// The new incarnation runs at the next epoch and keeps accepting
	// writes that extend the same log.
	p2, err := client2.Import(ref2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.(*Proxy).Epoch(); got != 2 {
		t.Errorf("reassumed epoch = %d, want 2", got)
	}
	if _, err := p2.Invoke(ctx, "set", "k8", int64(8)); err != nil {
		t.Fatal(err)
	}
	wal, err := persist.OpenWAL(store)
	if err != nil {
		t.Fatal(err)
	}
	if le, ls := wal.Last(); le != 2 || ls != 8 {
		t.Errorf("reassumed WAL position = (epoch %d, seq %d), want (2, 8)", le, ls)
	}
}

// TestWALRecordGoldenBytes pins the replica's storage format across the
// envelope's move out of the payload: a record is F8 sid seq ‖ request,
// a log holding such records — or the longer prefix a stamped request
// payload opened with when it carried its deadline and span too — replays
// into the state and the dedup table, and a stamped write still logs
// exactly those bytes.
func TestWALRecordGoldenBytes(t *testing.T) {
	store := persist.NewMemStore(nil)
	request := func(key string, v int64) []byte {
		b, err := core.EncodeRequest(0, "set", []any{key, v})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	old, err := persist.OpenWAL(store)
	if err != nil {
		t.Fatal(err)
	}
	for seq, rec := range [][]byte{
		append([]byte{0xF8, 0x05, 0x02}, request("k", 7)...),
		append([]byte{0xF8, 0x06, 0x01, 0xF6, 0xE8, 0x07, 0xF5, 0x01, 0x02}, request("j", 9)...),
		request("plain", 1),
	} {
		if err := old.Append(1, uint64(seq+1), rec); err != nil {
			t.Fatal(err)
		}
	}

	net := netsim.New()
	defer net.Close()
	factory := NewFactory(readMethods, func() StateMachine { return newReg() },
		WithWALStore(func(wire.Addr) persist.LogStore { return store }))
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
		rt.RegisterProxyType("Registers", factory)
		return rt
	}
	server, client := mk(1), mk(2)
	svc := newReg()
	ref, err := server.Export(svc, "Registers")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"k": 7, "j": 9, "plain": 1} {
		if got := svc.get(key); got != want {
			t.Errorf("replayed %s = %d, want %d", key, got, want)
		}
	}
	p, err := client.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	// (5, 2) and (6, 1) came back as applied identities: presenting them
	// again is a replay, answered from the table, and changes nothing.
	ctx := context.Background()
	for _, id := range []struct {
		sid, seq uint64
		key      string
		want     int64
	}{{5, 2, "k", 7}, {6, 1, "j", 9}} {
		if _, err := p.Invoke(core.ContextWithSession(ctx, id.sid, id.seq), "set", id.key, int64(100)); err != nil {
			t.Fatal(err)
		}
		if got := svc.get(id.key); got != id.want {
			t.Errorf("identity (%d, %d) re-applied: %s = %d, want %d", id.sid, id.seq, id.key, got, id.want)
		}
	}
	// A new stamped write is logged as F8 sid seq ‖ request.
	if _, err := p.Invoke(core.ContextWithSession(ctx, 5, 3), "set", "m", int64(1)); err != nil {
		t.Fatal(err)
	}
	wal, err := persist.OpenWAL(store)
	if err != nil {
		t.Fatal(err)
	}
	recs := wal.Records()
	want, err := core.EncodeRequest(ref.Cap, "set", []any{"m", int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	want = append([]byte{0xF8, 0x05, 0x03}, want...)
	if got := recs[len(recs)-1].Payload; !bytes.Equal(got, want) {
		t.Errorf("logged record = %x, want %x", got, want)
	}
}
