package health

import (
	"context"
	"testing"
	"time"

	"repro/internal/wire"
)

// askRelay sends one indirect-probe request from ktxs[0] to relay's prober.
func askRelay(t *testing.T, r *rig, relay int, payload []byte, timeout time.Duration) (*wire.Frame, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return r.ktxs[0].Call(ctx, r.ktxs[relay].Addr(), ProberObject, kindProbeReq, 0, payload)
}

func TestProberAnswersRelayRequests(t *testing.T) {
	r := newRig(t, 3)
	m := NewMonitor(r.ktxs[1], WithInterval(0), WithProbeTimeout(30*time.Millisecond))
	defer m.Close()
	r.net.Crash(3)

	for _, c := range []struct {
		name   string
		target wire.NodeID
		alive  bool
	}{
		{"the relay itself", 2, true},
		{"a live node", 1, true},
		{"a crashed node", 3, false},
	} {
		resp, err := askRelay(t, r, 1, wire.AppendUvarint(nil, uint64(c.target)), time.Second)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(resp.Payload) < 1 || (resp.Payload[0] == 1) != c.alive {
			t.Errorf("%s: reply %v, want alive=%v", c.name, resp.Payload, c.alive)
		}
		rtt, _, err := wire.Uvarint(resp.Payload[1:])
		if err != nil {
			t.Errorf("%s: reply carries no RTT: %v", c.name, err)
		}
		if c.target == 1 && rtt == 0 {
			t.Errorf("%s: relayed ping reported a zero RTT", c.name)
		}
	}

	// A request the prober cannot parse, or a one-way one, gets no answer.
	if _, err := askRelay(t, r, 1, nil, 50*time.Millisecond); err == nil {
		t.Error("a request with no target was answered")
	}
	ow := &wire.Frame{Kind: kindProbeReq, Flags: wire.FlagOneWay, Src: r.ktxs[0].Addr(), Dst: r.ktxs[1].Addr(),
		Object: ProberObject, Payload: wire.AppendUvarint(nil, 1)}
	(&prober{m: m}).HandleFrame(r.ktxs[1], ow) // must neither answer nor block
}

// TestIndirectProbeRescuesOneWayPartition cuts node 1's path to node 3 in
// one direction only. Direct evidence makes 3 suspect; node 2, which still
// reaches 3, confirms it alive, so node 1 holds it at degraded with the
// direction the inbound evidence blames.
func TestIndirectProbeRescuesOneWayPartition(t *testing.T) {
	for _, c := range []struct {
		name  string
		hears bool // node 3 still reaches node 1
		want  Direction
	}{
		{"outbound leg cut", true, DirectionOutbound},
		{"both legs cut", false, DirectionInbound},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 3)
			relay := NewMonitor(r.ktxs[1], WithInterval(0), WithProbeTimeout(50*time.Millisecond))
			defer relay.Close()
			m := NewMonitor(r.ktxs[0], WithInterval(0), WithProbeTimeout(50*time.Millisecond), WithIndirectProbes(1))
			defer m.Close()
			m.Watch(2)
			m.Watch(3)
			m.ReportSuccess(2)
			m.ReportSuccess(3)

			if c.hears {
				r.net.PartitionOneWay(1, 3)
				// A frame from 3 reaches 1's inbound hook; 1's reply is cut.
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				r.ktxs[2].Call(ctx, wire.Addr{Node: 1}, wire.KernelObject, wire.KindPing, 0, nil)
				cancel()
			} else {
				r.net.Partition(1, 3)
			}
			m.ReportFailure(3)
			m.ReportFailure(3) // suspect: the indirect round starts

			deadline := time.Now().Add(3 * time.Second)
			for m.State(3) != StateDegraded {
				if time.Now().After(deadline) {
					t.Fatalf("node 3 never rescued to degraded: %+v", m.Status(3))
				}
				time.Sleep(2 * time.Millisecond)
			}
			if st := m.Status(3); st.Direction != c.want {
				t.Errorf("direction = %v, want %v", st.Direction, c.want)
			}
			if m.indirects.Load() == 0 || m.indirectHits.Load() == 0 {
				t.Errorf("indirect probes %d, confirmations %d; want both counted",
					m.indirects.Load(), m.indirectHits.Load())
			}
		})
	}
}

// TestIndirectProbeWithoutConfirmation: when no relay can reach the node
// either, the round changes nothing and the node goes on to dead.
func TestIndirectProbeWithoutConfirmation(t *testing.T) {
	r := newRig(t, 3)
	relay := NewMonitor(r.ktxs[1], WithInterval(0), WithProbeTimeout(20*time.Millisecond))
	defer relay.Close()
	m := NewMonitor(r.ktxs[0], WithInterval(0), WithProbeTimeout(20*time.Millisecond),
		WithSuspectAfter(1), WithDeadAfter(3))
	defer m.Close()
	m.Watch(2)
	m.ReportSuccess(2)
	r.net.Crash(3)
	m.ReportFailure(3) // suspect: the round starts and finds nobody
	deadline := time.Now().Add(3 * time.Second)
	for m.indirects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no indirect probe was sent")
		}
		time.Sleep(time.Millisecond)
	}
	m.ReportFailure(3)
	m.ReportFailure(3)
	if st := m.Status(3); st.State != StateDead || st.Direction != DirectionNone {
		t.Errorf("status = %+v, want dead with no direction", st)
	}
	m.Close() // waits the round out
	if m.indirectHits.Load() != 0 {
		t.Errorf("%d confirmations for a crashed node", m.indirectHits.Load())
	}
}
