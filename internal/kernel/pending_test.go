package kernel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// assertPoolEmpty takes n waiters from the pool, fails if any holds a
// frame, and puts them back.
func assertPoolEmpty(t *testing.T, n int) {
	t.Helper()
	held := make([]chan *wire.Frame, n)
	for i := range held {
		held[i] = waiters.Get().(chan *wire.Frame)
		if len(held[i]) != 0 {
			t.Errorf("a pooled waiter holds %d frame(s)", len(held[i]))
		}
	}
	for _, ch := range held {
		waiters.Put(ch)
	}
}

// TestPendingWaiterReuse cancels a call's ctx while its response is being
// dispatched, then starts the next call at once, on the waiter the first
// one just recycled: that call must see its own response and nothing
// else, whichever side of the race the old response fell on — before the
// caller gave up, after it, or after its CancelPending.
func TestPendingWaiterReuse(t *testing.T) {
	n1, _ := twoNodes(t)
	c, _ := n1.NewContext()
	const rounds = 10000
	var late sync.WaitGroup
	for i := 0; i < rounds; i++ {
		id1, ch1, err := c.NewPending()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		late.Add(1)
		go func() {
			defer late.Done()
			cancel()
			c.dispatch(&wire.Frame{Kind: wire.KindReply, Flags: wire.FlagResponse, ReqID: id1})
		}()
		select { // as Call waits
		case <-ch1:
		case <-ctx.Done():
		}
		c.CancelPending(id1, ch1)

		id2, ch2, err := c.NewPending()
		if err != nil {
			t.Fatal(err)
		}
		// Looked at before the next response is sent: a stale frame in
		// the waiter would otherwise block that send for good.
		select {
		case f := <-ch2:
			t.Fatalf("round %d: call %#x found the frame for %#x on its waiter", i, id2, f.ReqID)
		default:
		}
		c.dispatch(&wire.Frame{Kind: wire.KindReply, Flags: wire.FlagResponse, ReqID: id2})
		if f := <-ch2; f == nil || f.ReqID != id2 {
			t.Fatalf("round %d: call %#x received %v", i, id2, f)
		}
		c.CancelPending(id2, ch2)
		late.Wait()
		if i%1000 == 0 {
			assertPoolEmpty(t, 4)
		}
	}
	assertPoolEmpty(t, 64)
}

// TestPendingClosedWakesEveryWaiter closes a node with calls pending, some
// registered by hand and some inside Call: every waiter receives nil, every
// Call returns ErrClosed, registration is refused after, and the waiters
// go back to the pool empty.
func TestPendingClosedWakesEveryWaiter(t *testing.T) {
	const raw, calls = 16, 16
	for round := 0; round < 20; round++ {
		n1, n2 := twoNodes(t)
		c1, _ := n1.NewContext()
		c2, _ := n2.NewContext()
		arrived := make(chan struct{}, calls)
		obj := c2.Register(HandlerFunc(func(*Context, *wire.Frame) { arrived <- struct{}{} }))

		type pending struct {
			id uint64
			ch chan *wire.Frame
		}
		var hand []pending
		for i := 0; i < raw; i++ {
			id, ch, err := c1.NewPending()
			if err != nil {
				t.Fatal(err)
			}
			hand = append(hand, pending{id, ch})
		}
		errs := make(chan error, calls)
		for i := 0; i < calls; i++ {
			go func() {
				_, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, nil)
				errs <- err
			}()
		}
		for i := 0; i < calls; i++ {
			<-arrived // each Call is registered before its request leaves
		}

		n1.Close()
		for _, p := range hand {
			select {
			case f := <-p.ch:
				if f != nil {
					t.Fatalf("round %d: closing woke %#x with a frame for %#x", round, p.id, f.ReqID)
				}
			case <-time.After(time.Second):
				t.Fatalf("round %d: closing never woke %#x", round, p.id)
			}
			c1.CancelPending(p.id, p.ch)
		}
		for i := 0; i < calls; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("round %d: pending Call returned %v, want ErrClosed", round, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("round %d: a pending Call survived Close", round)
			}
		}
		if _, _, err := c1.NewPending(); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: NewPending after Close = %v, want ErrClosed", round, err)
		}
		assertPoolEmpty(t, raw+calls)
	}
}

// TestPooledReplyLateAfterTimeout sends, over real TCP, calls whose
// replies come back after nobody waits for them: in "timeout" rounds a
// Call's deadline passed before the server answered, so dispatch finds
// no entry; in "drained" rounds the reply sits in the waiter when
// CancelPending drains it. Either way the kernel is the reply's only
// owner and recycles it, and the next call's reply is read into that
// same pooled frame: it must arrive intact, and the reuse must be seen.
func TestPooledReplyLateAfterTimeout(t *testing.T) {
	srvEP, err := netsim.ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	cliEP, err := netsim.ListenTCP(2, "127.0.0.1:0", map[wire.NodeID]string{1: srvEP.ListenAddr()})
	if err != nil {
		srvEP.Close()
		t.Fatal(err)
	}
	isLate := func(f *wire.Frame) bool { return bytes.HasPrefix(f.Payload, []byte("late")) }
	var mu sync.Mutex
	late := map[*wire.Frame]bool{} // every frame a late reply arrived in
	seenLate := make(chan struct{}, 1)
	srv := NewNode(srvEP)
	cli := NewNode(cliEP, WithTrace(func(dir TraceDirection, f *wire.Frame) {
		if dir == TraceRecv && f.Flags&wire.FlagResponse != 0 && isLate(f) {
			mu.Lock()
			late[f] = true
			mu.Unlock()
			seenLate <- struct{}{}
		}
	}))
	t.Cleanup(func() { cli.Close(); srv.Close() })
	sc, _ := srv.NewContext()
	cc, _ := cli.NewContext()
	arrived, hold := make(chan struct{}, 1), make(chan struct{}, 1)
	obj := sc.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		if isLate(f) {
			arrived <- struct{}{}
			<-hold
		}
		_ = ktx.Respond(f, wire.KindReply, f.Payload)
	}))

	for _, mode := range []string{"timeout", "drained"} {
		mu.Lock()
		clear(late) // a frame counts only if this mode recycled it
		mu.Unlock()
		reused := 0
		const rounds = 25
		for i := 0; i < rounds; i++ {
			payload := bytes.Repeat([]byte(fmt.Sprintf("late %s %d;", mode, i)), 40)
			if mode == "timeout" {
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				errc := make(chan error, 1)
				go func() {
					_, err := cc.Call(ctx, sc.Addr(), obj, wire.KindRequest, 0, payload)
					errc <- err
				}()
				<-arrived
				err := <-errc // the reply is held until the call has given up
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("round %d: held call returned %v, want a deadline error", i, err)
				}
				hold <- struct{}{}
				<-seenLate
			} else {
				id, ch, err := cc.NewPending()
				if err != nil {
					t.Fatal(err)
				}
				req := &wire.Frame{Kind: wire.KindRequest, ReqID: id, Dst: sc.Addr(), Object: obj, Payload: payload}
				if err := cc.Send(req); err != nil {
					t.Fatal(err)
				}
				<-arrived
				hold <- struct{}{}
				<-seenLate
				for len(ch) == 0 { // dispatched just after the trace hook
					time.Sleep(10 * time.Microsecond)
				}
				cc.CancelPending(id, ch)
			}

			want := []byte(fmt.Sprintf("%s round %d", mode, i))
			resp, err := cc.Call(context.Background(), sc.Addr(), obj, wire.KindRequest, 0, want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Payload, want) {
				t.Fatalf("%s round %d: reply %q, want %q", mode, i, resp.Payload, want)
			}
			mu.Lock()
			if late[resp] {
				reused++
			}
			mu.Unlock()
		}
		t.Logf("%s: %d of %d replies reused a late reply's frame", mode, reused, rounds)
		if reused == 0 {
			t.Errorf("%s: no reply in %d rounds reused a recycled late reply's frame", mode, rounds)
		}
	}
}
