package replica

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/health"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// The repair loop. Every proxy periodically reports its position to the
// primary (kindSync). The probe doubles as:
//
//   - anti-entropy: an evicted or restarted member is re-admitted and
//     handed the log suffix past its position, or a full snapshot when
//     compaction (or an epoch change) has outrun it;
//   - failure detection: probe failures accumulate as evidence that the
//     primary's node is dead, and conclusive evidence (crashed-node
//     errors, an open breaker, a fencing verdict) triggers election.
//
// Election is deterministic: the primary's join-ordered membership view
// rides every join reply and sync reply, and the first entry of the view
// is the successor. A proxy that is not the successor polls its peers
// (kindWhereIs on their member objects) until one of them announces a
// primary under a higher epoch, then adopts it and resynchronizes. The
// successor promotes itself: its local copy becomes the authoritative
// state, and a new sequencer continues the group's sequence under
// epoch+1, fencing anything the deposed primary still tries to deliver.
//
// A proxy never promotes while its state lags the epoch it follows
// (stateEpoch != epoch): promotion from unsynchronized state could lose
// acknowledged writes.

// electThreshold is how many consecutive inconclusive probe failures are
// treated as primary death.
const electThreshold = 3

// demoteThreshold is how many consecutive successful sync rounds with
// the primary's node graded strongly degraded (score ≥ demoteScore)
// escalate to a demotion election. Syncs succeeding means the primary
// is alive — this is the gray-failure path, where "alive but 10× slow"
// must not hold the group's write latency hostage indefinitely.
const (
	demoteThreshold = 3
	demoteScore     = 0.75
)

// healLoop runs until Close.
func (p *Proxy) healLoop() {
	t := time.NewTicker(p.f.syncInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		p.healTick()
	}
}

func (p *Proxy) healTick() {
	p.mu.Lock()
	skip := p.closed || p.prim != nil
	p.mu.Unlock()
	if skip {
		return
	}
	err := p.syncOnce()
	if err == nil {
		p.mu.Lock()
		p.failures = 0
		p.mu.Unlock()
		p.checkDegradedPrimary()
		return
	}
	p.mu.Lock()
	p.failures++
	conclusive := deadEvidence(err)
	over := p.failures >= electThreshold
	p.mu.Unlock()
	if conclusive || over {
		p.elect()
	}
}

func (p *Proxy) syncTimeout() time.Duration {
	if d := 4 * p.f.syncInterval; d > 500*time.Millisecond {
		return d
	}
	return 500 * time.Millisecond
}

// syncOnce runs one repair probe against the current primary and applies
// whatever transfer it returns.
func (p *Proxy) syncOnce() error {
	p.mu.Lock()
	ctrl, stateEpoch, member := p.ctrl, p.stateEpoch, p.member
	p.mu.Unlock()
	applied := p.appliedSeq.Load()

	req := wire.AppendObjAddr(nil, member.Self())
	req = wire.AppendUvarint(req, stateEpoch)
	req = wire.AppendUvarint(req, applied)

	// Sync probes are repair traffic: shedding them under load would turn
	// congestion into spurious elections. High priority exempts them.
	ctx, cancel := context.WithTimeout(core.WithPriority(context.Background(), wire.PriorityHigh), p.syncTimeout())
	defer cancel()
	reply, err := p.rt.GuardedCall(ctx, ctrl, kindSync, req)
	if err != nil {
		return err
	}

	mode, epoch, curSeq, blob, rawView, err := decodeSyncReply(reply.Payload)
	if err != nil {
		return err
	}
	if view, err := decodeView(rawView); err == nil && len(view) > 0 {
		p.mu.Lock()
		p.view = view
		p.mu.Unlock()
	}

	switch mode {
	case syncOK:
		// Current; nothing to transfer.
	case syncRecords:
		// Catch up from the log suffix. The position only moves forward:
		// live deliveries racing this transfer may already have advanced it.
		member.ResumeAt(epoch, curSeq, false, func() {
			for _, r := range blobRecords(blob) {
				if r.Seq <= p.appliedSeq.Load() {
					continue
				}
				p.apply(r.Seq, r.Payload)
			}
		})
	case syncSnapshot:
		// Full state transfer: the restored snapshot IS the state at
		// curSeq, so the position is set exactly (rewinding past any
		// divergent tail applied under a dead epoch). The dedup table
		// travels inside the blob — it is part of the state.
		member.ResumeAt(epoch, curSeq, true, func() {
			dedup, svcState := splitSnapshot(blob)
			if err := p.local.Restore(svcState); err != nil {
				return
			}
			if dedup != nil {
				_ = p.tab.Restore(dedup)
			}
			p.appliedSeq.Store(curSeq)
		})
		p.mu.Lock()
		if epoch > p.epoch {
			p.epoch = epoch
		}
		p.stateEpoch = epoch
		p.mu.Unlock()
	}
	return nil
}

// blobRecords decodes a sync-reply log suffix, tolerating nothing: a
// malformed suffix applies no records (the next probe will fetch a
// snapshot instead, since the position will still lag).
func blobRecords(blob []byte) []persist.Record {
	recs, err := decodeRecords(blob)
	if err != nil {
		return nil
	}
	return recs
}

func decodeSyncReply(payload []byte) (mode byte, epoch, curSeq uint64, blob, view []byte, err error) {
	if len(payload) < 1 {
		return 0, 0, 0, nil, nil, core.Errorf(core.CodeInternal, "sync", "replica: empty sync reply")
	}
	mode = payload[0]
	payload = payload[1:]
	epoch, n, err := wire.Uvarint(payload)
	if err != nil {
		return 0, 0, 0, nil, nil, err
	}
	payload = payload[n:]
	curSeq, n, err = wire.Uvarint(payload)
	if err != nil {
		return 0, 0, 0, nil, nil, err
	}
	payload = payload[n:]
	blob, n, err = wire.Bytes(payload)
	if err != nil {
		return 0, 0, 0, nil, nil, err
	}
	return mode, epoch, curSeq, blob, payload[n:], nil
}

// checkDegradedPrimary escalates a live-but-degraded primary to a
// demotion election. The evidence is the health monitor's gray-failure
// verdict on the primary's node, sustained across demoteThreshold
// consecutive sync rounds; the action is gated on this proxy being the
// synchronized successor (view head, stateEpoch == epoch), so exactly
// the member that can safely promote acts. Safety is the same as for
// crash promotion: the primary acks a write only after delivery reaches
// every member, so the successor's copy holds every acked write, and
// the new sequencer's epoch+1 fences anything the demoted primary still
// tries to deliver.
func (p *Proxy) checkDegradedPrimary() {
	mon := p.rt.Health()
	if mon == nil {
		return
	}
	p.mu.Lock()
	primNode := p.ctrl.Addr.Node
	successor := len(p.view) > 0 && p.view[0] == p.member.Self()
	synced := p.stateEpoch == p.epoch
	p.mu.Unlock()

	st := mon.Status(primNode)
	bad := st.State == health.StateDegraded && st.Score >= demoteScore
	p.mu.Lock()
	if !bad {
		p.degraded = 0
		p.mu.Unlock()
		return
	}
	p.degraded++
	over := p.degraded >= demoteThreshold
	if over {
		p.degraded = 0 // one election per sustained episode
	}
	p.mu.Unlock()
	if over && successor && synced {
		p.elect()
	}
}

// deadEvidence reports whether a probe failure conclusively means the
// primary is gone (dead node, open breaker) or deposed (fencing verdict),
// as opposed to a timeout that might be mere congestion.
func deadEvidence(err error) bool {
	var ie *core.InvokeError
	if errors.As(core.RemoteToInvokeError("sync", err), &ie) && ie.Code == core.CodeFenced {
		return true
	}
	return errors.Is(err, core.ErrCircuitOpen) ||
		errors.Is(err, rpc.ErrTooManyRetries) ||
		errors.Is(err, netsim.ErrNodeCrashed) ||
		errors.Is(err, netsim.ErrUnknownNode)
}

// elect runs one round of successor determination. Peers are polled
// first — if anyone already follows a higher epoch, adopt it (promotion
// may already have happened elsewhere). Otherwise, if this proxy heads
// the membership view, it promotes itself.
func (p *Proxy) elect() {
	p.mu.Lock()
	if p.closed || p.prim != nil {
		p.mu.Unlock()
		return
	}
	view := append([]wire.ObjAddr(nil), p.view...)
	curEpoch := p.epoch
	self := p.member.Self()
	p.mu.Unlock()

	bestEpoch, bestCtrl := curEpoch, wire.ObjAddr{}
	for _, peer := range view {
		if peer == self {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.syncTimeout())
		reply, err := p.rt.Client().Call(ctx, peer, kindWhereIs, nil)
		cancel()
		if err != nil {
			continue
		}
		epoch, n, err := wire.Uvarint(reply)
		if err != nil {
			continue
		}
		ctrl, _, err := wire.DecodeObjAddr(reply[n:])
		if err != nil {
			continue
		}
		if epoch > bestEpoch {
			bestEpoch, bestCtrl = epoch, ctrl
		}
	}
	if bestEpoch > curEpoch {
		p.adopt(bestEpoch, bestCtrl)
		return
	}
	if len(view) > 0 && view[0] == self {
		p.promote()
	}
}

// adopt switches this proxy to a newer primary incarnation. The member
// pauses first — deliveries under the new epoch are acknowledged and
// buffered, deliveries from the deposed epoch are fenced — and the
// immediate resync fetches a full snapshot (the primary always snapshots
// across epochs), whose ResumeAt ends the pause.
func (p *Proxy) adopt(epoch uint64, ctrl wire.ObjAddr) {
	p.mu.Lock()
	if epoch <= p.epoch || p.closed || p.prim != nil {
		p.mu.Unlock()
		return
	}
	p.epoch = epoch
	p.ctrl = ctrl
	p.failures = 0
	member := p.member
	p.mu.Unlock()
	member.Pause(epoch)
	_ = p.syncOnce() // retried by the loop on failure
}

// promote makes this proxy the group's primary: its local copy becomes
// the authoritative state under a fresh epoch, logged to a fresh
// write-ahead log, with an initially empty delivery set that survivors
// rejoin through their own repair loops.
func (p *Proxy) promote() {
	p.mu.Lock()
	if p.prim != nil || p.closed || p.stateEpoch != p.epoch {
		p.mu.Unlock()
		return
	}
	newEpoch := p.epoch + 1
	member := p.member
	p.mu.Unlock()

	// Fence the dead epoch before capturing state, so nothing can apply
	// to the local copy mid-snapshot.
	member.Pause(newEpoch)
	var prim *primary
	member.ResumeAt(newEpoch, 0, false, func() {
		applied := p.appliedSeq.Load()
		state, err := p.local.Snapshot()
		if err != nil {
			return
		}
		// The baseline snapshot carries the member's dedup table: every
		// write the dead primary acked was delivered here first, so its
		// identity is in this table, and the new incarnation inherits it —
		// a client retransmitting across the promotion is answered from
		// cache, not re-applied.
		state = combineSnapshot(p.tab.Snapshot(), state)
		wal, err := persist.OpenWAL(p.f.walStore(p.rt.Addr()))
		if err != nil {
			return
		}
		if err := wal.Snapshot(newEpoch, applied, state); err != nil {
			return
		}
		np := &primary{
			rt: p.rt, svc: p.local, isRead: p.isRead, cap: p.ref.Cap,
			wal: wal, tab: p.tab, name: p.f.name, snapEvery: p.f.snapEvery,
		}
		seqOpts := []group.SequencerOption{
			group.WithEpoch(newEpoch),
			group.WithStartSeq(applied),
			group.WithOnEvict(np.onEvict),
		}
		if p.f.deliverTimeout > 0 {
			seqOpts = append(seqOpts, group.WithDeliverTimeout(p.f.deliverTimeout))
		}
		np.seq = group.NewSequencer(p.rt, seqOpts...)
		np.id = p.rt.Kernel().Register(rpc.NewServer(rpc.HandlerFunc(np.handle)))
		prim = np
	})
	if prim == nil {
		return
	}
	p.mu.Lock()
	p.prim = prim
	p.epoch = newEpoch
	p.stateEpoch = newEpoch
	p.ctrl = wire.ObjAddr{Addr: p.rt.Addr(), Object: prim.id}
	p.view = nil
	p.failures = 0
	p.mu.Unlock()
}
