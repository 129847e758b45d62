package dsm

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// dsmWorld is a manager plus n agents, each on its own node.
type dsmWorld struct {
	manager *Manager
	agents  []*Agent
}

func newDSMWorld(t *testing.T, nAgents int, mOpts ...ManagerOption) *dsmWorld {
	t.Helper()
	net := netsim.New()
	t.Cleanup(net.Close)
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
		return core.NewRuntime(ktx)
	}
	w := &dsmWorld{manager: NewManager(mk(1), mOpts...)}
	for i := 0; i < nAgents; i++ {
		w.agents = append(w.agents, NewAgent(mk(wire.NodeID(i+2)), w.manager.Addr()))
	}
	return w
}

func TestReadFaultThenLocal(t *testing.T) {
	w := newDSMWorld(t, 1, WithPageSize(64))
	a := w.agents[0]
	ctx := context.Background()

	page, err := a.Read(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 64 || !bytes.Equal(page, make([]byte, 64)) {
		t.Errorf("fresh page = %v", page[:8])
	}
	for i := 0; i < 9; i++ {
		if _, err := a.Read(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.ReadFaults != 1 || st.LocalReads != 9 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	w := newDSMWorld(t, 2, WithPageSize(32))
	ctx := context.Background()
	a, b := w.agents[0], w.agents[1]

	if err := a.WriteAt(ctx, 5, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(ctx, 5, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("b read %q", got)
	}
}

func TestRepeatedWritesAreLocal(t *testing.T) {
	w := newDSMWorld(t, 1, WithPageSize(32))
	a := w.agents[0]
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := a.Write(ctx, 1, func(p []byte) { p[0]++ }); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.WriteFaults != 1 || st.LocalWrites != 9 {
		t.Errorf("stats = %+v", st)
	}
	page, err := a.Read(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page[0] != 10 {
		t.Errorf("page[0] = %d", page[0])
	}
}

// Pages 247 and 248 encode (uvarint) to F7 01 and F8 01, the magics of the
// envelope's priority and session fields: a page message is private to
// this package and must mean the same whatever byte it opens with.
func TestWriteInvalidatesReaders(t *testing.T) {
	for _, page := range []PageID{1, 247, 248} {
		t.Run(fmt.Sprint("page", page), func(t *testing.T) { writeInvalidatesReaders(t, page) })
	}
}

func writeInvalidatesReaders(t *testing.T, page PageID) {
	w := newDSMWorld(t, 3, WithPageSize(16))
	ctx := context.Background()
	a, b, c := w.agents[0], w.agents[1], w.agents[2]

	if err := a.WriteAt(ctx, page, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// b and c read (downgrading a, joining the copyset).
	for _, ag := range []*Agent{b, c} {
		got, err := ag.ReadAt(ctx, page, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 1 {
			t.Fatalf("read %d want 1", got[0])
		}
	}
	// a writes again: b and c must fault on their next read and see v2.
	if err := a.WriteAt(ctx, page, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	for i, ag := range []*Agent{b, c} {
		got, err := ag.ReadAt(ctx, page, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 2 {
			t.Errorf("agent %d read %d after invalidation, want 2", i, got[0])
		}
	}
	bst := b.Stats()
	if bst.Invalidations == 0 {
		t.Error("b was never invalidated")
	}
	if bst.ReadFaults != 2 {
		t.Errorf("b read faults = %d, want 2", bst.ReadFaults)
	}
	mst := w.manager.Stats()
	if mst.Invalidations < 2 {
		t.Errorf("manager invalidations = %d", mst.Invalidations)
	}
}

func TestOwnershipMigratesBetweenWriters(t *testing.T) {
	w := newDSMWorld(t, 2, WithPageSize(16))
	ctx := context.Background()
	a, b := w.agents[0], w.agents[1]

	// Ping-pong writes: each handoff recalls the previous owner.
	for i := byte(0); i < 6; i++ {
		writer := a
		if i%2 == 1 {
			writer = b
		}
		if err := writer.Write(ctx, 1, func(p []byte) { p[0] = i }); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.ReadAt(ctx, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Errorf("final value = %d, want 5", got[0])
	}
	if mst := w.manager.Stats(); mst.Recalls < 4 {
		t.Errorf("manager recalls = %d, want ping-pong", mst.Recalls)
	}
}

func TestDistinctPagesIndependent(t *testing.T) {
	w := newDSMWorld(t, 2, WithPageSize(16))
	ctx := context.Background()
	a, b := w.agents[0], w.agents[1]
	if err := a.WriteAt(ctx, 1, 0, []byte{11}); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt(ctx, 2, 0, []byte{22}); err != nil {
		t.Fatal(err)
	}
	// Writing page 2 must not disturb a's exclusive hold on page 1.
	if err := a.Write(ctx, 1, func(p []byte) { p[1] = 1 }); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.WriteFaults != 1 {
		t.Errorf("a write faults = %d, want 1 (page 1 still exclusive)", st.WriteFaults)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	w := newDSMWorld(t, 4, WithPageSize(8))
	ctx := context.Background()
	var wg sync.WaitGroup
	const perAgent = 25
	for _, ag := range w.agents {
		wg.Add(1)
		go func(ag *Agent) {
			defer wg.Done()
			for i := 0; i < perAgent; i++ {
				err := ag.Write(ctx, 7, func(p []byte) {
					// 64-bit counter in the page.
					v := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24
					v++
					p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(ag)
	}
	wg.Wait()
	page, err := w.agents[0].Read(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := uint64(page[0]) | uint64(page[1])<<8 | uint64(page[2])<<16 | uint64(page[3])<<24
	want := uint64(len(w.agents) * perAgent)
	if got != want {
		t.Errorf("counter = %d, want %d (lost updates)", got, want)
	}
}

func TestRangeErrors(t *testing.T) {
	w := newDSMWorld(t, 1, WithPageSize(8))
	ctx := context.Background()
	a := w.agents[0]
	if _, err := a.ReadAt(ctx, 1, 4, 8); err == nil {
		t.Error("out-of-range ReadAt succeeded")
	}
	if err := a.WriteAt(ctx, 1, 7, []byte{1, 2}); err == nil {
		t.Error("out-of-range WriteAt succeeded")
	}
	if _, err := a.ReadAt(ctx, 1, -1, 2); err == nil {
		t.Error("negative offset succeeded")
	}
}

func TestPageMsgRoundTrip(t *testing.T) {
	buf := pageMsg(42, []byte("abc"))
	page, data, err := decodePageMsg(buf)
	if err != nil {
		t.Fatal(err)
	}
	if page != 42 || string(data) != "abc" {
		t.Errorf("round-trip = %d %q", page, data)
	}
	for i := 0; i < len(buf); i++ {
		if _, _, err := decodePageMsg(buf[:i]); err == nil {
			t.Errorf("accepted %d-byte prefix", i)
		}
	}
}

func TestStateString(t *testing.T) {
	if stateInvalid.String() != "invalid" || stateShared.String() != "shared" ||
		stateExclusive.String() != "exclusive" || state(9).String() != "state(9)" {
		t.Error("state.String mismatch")
	}
}

func TestDeadOwnerRecovered(t *testing.T) {
	// An agent that owned a page exclusively dies without surrendering it.
	// The next fault's recall times out; the manager falls back to its own
	// last copy (fail-stop: the dead owner's unsynced writes are lost, but
	// the page stays available).
	w := newDSMWorld(t, 2, WithPageSize(8), WithCoherenceTimeout(100*time.Millisecond))
	ctx := context.Background()
	a, b := w.agents[0], w.agents[1]

	if err := a.WriteAt(ctx, 1, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	// Kill a without any protocol goodbye.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// b's read recalls a, times out, and proceeds. The value observed is
	// the manager's copy from before a's exclusive grant (a's write is
	// lost — fail-stop semantics, asserted here so the contract is pinned).
	start := time.Now()
	got, err := b.ReadAt(ctx, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("dead-owner recovery took %v", elapsed)
	}
	if got[0] != 0 {
		t.Errorf("read %d; want 0 (dead owner's unsynced write must not resurrect)", got[0])
	}
	// The page is fully writable again.
	if err := b.WriteAt(ctx, 1, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	got, err = b.ReadAt(ctx, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Errorf("post-recovery read = %d", got[0])
	}
}

func BenchmarkDSMLocalRead(b *testing.B) {
	w := benchDSMWorld(b)
	ctx := context.Background()
	if _, err := w.agents[0].Read(ctx, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.agents[0].Read(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDSMWriteFaultPingPong(b *testing.B) {
	w := benchDSMWorld(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag := w.agents[i%2]
		if err := ag.Write(ctx, 1, func(p []byte) { p[0]++ }); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDSMWorld mirrors newDSMWorld for benchmarks.
func benchDSMWorld(b *testing.B) *dsmWorld {
	b.Helper()
	net := netsim.New()
	b.Cleanup(net.Close)
	mk := func(id wire.NodeID) *core.Runtime {
		ep, err := net.Attach(id)
		if err != nil {
			b.Fatal(err)
		}
		node := kernel.NewNode(ep)
		b.Cleanup(func() { node.Close() })
		ktx, err := node.NewContext()
		if err != nil {
			b.Fatal(err)
		}
		return core.NewRuntime(ktx)
	}
	w := &dsmWorld{manager: NewManager(mk(1), WithPageSize(64))}
	for i := 0; i < 2; i++ {
		w.agents = append(w.agents, NewAgent(mk(wire.NodeID(i+2)), w.manager.Addr()))
	}
	return w
}
