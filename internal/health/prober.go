// SWIM-style indirect probes: when a node stops answering direct pings,
// the monitor asks K peers to ping it on our behalf. A relayed answer
// proves the node is alive and that only the path between us is broken —
// the difference between "dead" (promote a successor, re-route forever)
// and "asymmetrically partitioned" (degraded; route around it, expect it
// back). Every monitor serves relay requests through a prober object at
// a well-known id, so peers need no directory lookup to find it; the
// monitor assumes peers run their monitor in the same context id as its
// own (true for proxyd and the test harnesses, which put one runtime in
// the first context of each node).
package health

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/wire"
)

// ProberObject is the well-known object id every monitor's indirect-probe
// relay listens on (within the monitor's own context).
const ProberObject wire.ObjectID = 0x48454C50 // "HELP"

// kindProbeReq asks a peer's prober to ping a third node: payload is the
// target node id (uvarint); the reply is one alive byte plus the relay's
// observed RTT (uvarint nanoseconds).
const kindProbeReq = wire.KindCustom + 60

// prober serves indirect-probe requests out of the monitor's context. It
// is a raw kernel handler (not an rpc server): probes are idempotent and
// loss-tolerant, and the kernel's dedup lookup sees them like any other
// request, so it answers through Context.Respond, which commits the reply
// and clears the probe's in-flight mark.
type prober struct{ m *Monitor }

// HandleFrame implements kernel.Handler: ping the requested target with
// the monitor's probe timeout and report whether it answered. Handlers
// run on their own dispatch goroutine, so blocking on the ping is fine.
func (p *prober) HandleFrame(ktx *kernel.Context, f *wire.Frame) {
	if f.Kind != kindProbeReq || f.Flags&wire.FlagOneWay != 0 || f.Src.IsZero() {
		return
	}
	t, _, err := wire.Uvarint(f.Payload)
	if err != nil {
		return
	}
	target := wire.NodeID(t)
	alive, rtt := false, time.Duration(0)
	if target == ktx.Addr().Node {
		alive = true
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), p.m.timeout)
		start := time.Now()
		_, cerr := ktx.Call(ctx, wire.Addr{Node: target}, wire.KernelObject, wire.KindPing, 0, nil)
		cancel()
		var re *kernel.RemoteError
		if cerr == nil || errors.As(cerr, &re) {
			alive, rtt = true, time.Since(start)
		}
	}
	b := byte(0)
	if alive {
		b = 1
	}
	_ = ktx.Respond(f, kindProbeReq, wire.AppendUvarint([]byte{b}, uint64(rtt)))
}

// relaysFor picks up to indirectK nodes to relay a probe to the target:
// watched peers the monitor currently believes it can reach (alive or
// merely slow — not suspect, dead, or asymmetric). m.mu must be held.
func (m *Monitor) relaysFor(target wire.NodeID) []wire.NodeID {
	var relays []wire.NodeID
	for id, h := range m.nodes {
		if id == target || id == m.ktx.Addr().Node {
			continue
		}
		if h.state == StateAlive || (h.state == StateDegraded && h.direction == DirectionNone) {
			relays = append(relays, id)
			if len(relays) == m.indirectK {
				break
			}
		}
	}
	return relays
}

// indirectRound asks each relay to ping the target, concurrently, and
// feeds any confirmation back into the grading model. The round owns the
// node's indirectBusy flag and a slot in m.wg.
func (m *Monitor) indirectRound(target wire.NodeID, relays []wire.NodeID) {
	defer m.wg.Done()
	peerCtx := m.ktx.Addr().Context
	payload := wire.AppendUvarint(nil, uint64(target))
	var inner sync.WaitGroup
	var mu sync.Mutex
	alive := false
	var relayRTT time.Duration
	for _, relay := range relays {
		inner.Add(1)
		go func(relay wire.NodeID) {
			defer inner.Done()
			m.indirects.Inc()
			// Two hops (us→relay, relay→target) plus slack.
			ctx, cancel := context.WithTimeout(context.Background(), 2*m.timeout+50*time.Millisecond)
			defer cancel()
			resp, err := m.ktx.Call(ctx, wire.Addr{Node: relay, Context: peerCtx},
				ProberObject, kindProbeReq, 0, payload)
			if err != nil || len(resp.Payload) < 1 || resp.Payload[0] == 0 {
				return
			}
			rtt, _, _ := wire.Uvarint(resp.Payload[1:])
			mu.Lock()
			alive = true
			if d := time.Duration(rtt); relayRTT == 0 || d < relayRTT {
				relayRTT = d
			}
			mu.Unlock()
		}(relay)
	}
	inner.Wait()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	h, ok := m.nodes[target]
	if !ok {
		m.mu.Unlock()
		return
	}
	h.indirectBusy = false
	if !alive {
		m.mu.Unlock()
		return
	}
	m.indirectHits.Inc()
	h.lastIndirect = time.Now()
	// Re-grade with the new evidence; finishObservation unlocks m.mu.
	// The launch hook cannot re-fire here: lastIndirect is fresh.
	if launch := m.finishObservation(target, h, h.lastIndirect); launch != nil {
		launch()
	}
}
