package rpc

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/session"
	"repro/internal/wire"
)

// saturable is a server on node 2 whose admission controller has one slot
// and a one-deep queue. Its rpc.Server parks "block" requests until
// release and counts every other request as a put.
type saturable struct {
	t       *testing.T
	net     *netsim.Network
	ctl     *overload.Controller
	tab     *session.Table
	dst     wire.ObjAddr
	puts    atomic.Int64
	started chan struct{}
	release chan struct{}
	// cut, set before any put is sent, partitions nodes 1 and 2 as the
	// first put finishes: it runs, and its reply is lost.
	cut bool
}

func newSaturable(t *testing.T) *saturable {
	s := &saturable{t: t, net: netsim.New(), started: make(chan struct{}, 2), release: make(chan struct{})}
	t.Cleanup(s.net.Close)
	s.ctl = overload.NewController(overload.Config{
		MinLimit: 1, MaxLimit: 1, InitialLimit: 1,
		QueueLimit: 1, QueueDeadline: time.Minute,
	}, nil, "")
	srvCtx := attachContext(t, s.net, 2, kernel.WithAdmission(s.ctl))
	s.tab = srvCtx.Node().SessionTable()
	s.dst = wire.ObjAddr{Addr: srvCtx.Addr(), Object: srvCtx.Register(NewServer(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		if string(req.Frame.Payload) == "block" {
			s.started <- struct{}{}
			<-s.release
		} else if s.puts.Add(1) == 1 && s.cut {
			s.net.Partition(1, 2)
		}
		return wire.KindReply, nil, nil
	})))}
	t.Cleanup(s.unblock)
	return s
}

// saturate has node 3 take the slot and the queue with two "block" calls.
func (s *saturable) saturate() {
	s.t.Helper()
	ktx := attachContext(s.t, s.net, 3)
	for i := 0; i < 2; i++ {
		go func() {
			_, _ = ktx.Call(context.Background(), s.dst.Addr, s.dst.Object, wire.KindRequest, 0, []byte("block"))
		}()
	}
	<-s.started
	s.await("the second block call to queue", func(st overload.Status) bool { return st.Queued == 1 })
}

// drain releases the block calls and waits until both have finished.
func (s *saturable) drain() {
	s.t.Helper()
	s.unblock()
	s.await("the block calls to finish", func(st overload.Status) bool { return st.Inflight == 0 && st.Queued == 0 })
}

func (s *saturable) await(what string, cond func(overload.Status) bool) {
	s.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(s.ctl.Status()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (s *saturable) unblock() {
	select {
	case <-s.release:
	default:
		close(s.release)
	}
}

// inFlight counts the in-flight marks across the server's dedup table.
func (s *saturable) inFlight() int {
	n := 0
	for _, info := range s.tab.Sessions() {
		n += info.InFlight
	}
	return n
}

var dedupRows = []struct {
	name string
	env  wire.Envelope
}{
	{"unstamped", wire.Envelope{}},
	{"stamped", wire.Envelope{Session: 7, Seq: 1}},
}

// TestRetransmissionNeverShedAfterExecution: a put runs and its reply is
// lost; its retransmission reaches the node while two other calls hold the
// admission slot and the queue. It must be answered from the dedup table,
// never shed: a pushback tells the caller the request provably never ran,
// and a stub with an alternate would run it a second time.
func TestRetransmissionNeverShedAfterExecution(t *testing.T) {
	for _, row := range dedupRows {
		t.Run(row.name, func(t *testing.T) {
			s := newSaturable(t)
			s.cut = true
			client := NewClient(attachContext(t, s.net, 1), WithRetryInterval(10*time.Millisecond), WithMaxAttempts(500))
			errc := make(chan error, 1)
			go func() {
				_, err := client.CallEnvelope(context.Background(), s.dst, wire.KindRequest, row.env, []byte("put"))
				errc <- err
			}()
			for deadline := time.Now().Add(5 * time.Second); s.puts.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("put never ran")
				}
			}
			s.saturate()
			s.net.Heal(1, 2)
			if err := <-errc; err != nil {
				t.Errorf("put that already ran answered %v, want its cached reply", err)
			}
			if n := s.puts.Load(); n != 1 {
				t.Errorf("put ran %d times, want 1", n)
			}
			if client.Stats().Retransmits == 0 {
				t.Error("client never retransmitted the put")
			}
		})
	}
}

// TestPushbackLeavesNoInFlightMark: a request shed by admission never
// ran, so it leaves no in-flight mark behind, and its retry under the same
// identity runs exactly once instead of being dropped behind a ghost.
func TestPushbackLeavesNoInFlightMark(t *testing.T) {
	for _, row := range dedupRows {
		t.Run(row.name, func(t *testing.T) {
			s := newSaturable(t)
			s.saturate()
			c := newCaller(t, s.net, 1, s.dst)
			c.env = row.env
			id, marks := c.ktx.NextReqID(), s.inFlight()
			if f := c.send(id, 0, []byte("put")); f.Kind != wire.KindError || f.Flags&wire.FlagPushback == 0 {
				t.Fatalf("request to a saturated node answered %v (flags %#x), want a pushback", f.Kind, f.Flags)
			}
			if n := s.inFlight(); n != marks {
				t.Errorf("%d in-flight marks after the shed, want the %d from before it", n, marks)
			}
			if v, _ := s.tab.Peek(7, 1); row.env.Session != 0 && v != session.Fresh {
				t.Errorf("shed stamp's verdict = %v, want fresh", v)
			}
			s.drain()
			if f := c.send(id, wire.FlagRetransmit, []byte("put")); f.Kind != wire.KindReply {
				t.Errorf("retry of the shed request answered %v %q, want it run", f.Kind, f.Payload)
			}
			if n := s.puts.Load(); n != 1 {
				t.Errorf("put ran %d times, want 1", n)
			}
		})
	}
}
