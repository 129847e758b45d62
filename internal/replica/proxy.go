package replica

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/wire"
)

// joinTimeout bounds the bootstrap round when a proxy is created.
const joinTimeout = 10 * time.Second

func contextWithJoinTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), joinTimeout)
}

// Proxy is the replicated proxy: a full local copy of the object plus
// group membership. Implements core.Proxy.
//
// Beyond serving calls, a proxy is the group's unit of fault tolerance:
// its repair loop (heal.go) keeps it in sync with the primary, and when
// the primary dies the deterministic successor among the proxies promotes
// itself — its local copy becomes the authoritative one, under a new
// epoch that fences the old primary.
type Proxy struct {
	rt     *core.Runtime
	f      *Factory
	ref    codec.Ref
	isRead func(string) bool
	local  StateMachine
	// tab mirrors the primary's exactly-once dedup table: seeded from the
	// bootstrap snapshot, maintained by every delivered write (dedup.go),
	// and handed to the new primary on promotion.
	tab  *session.Table
	stop chan struct{}

	mu     sync.Mutex
	ctrl   wire.ObjAddr
	member *group.Member
	closed bool
	// epoch is the primary incarnation this proxy follows; stateEpoch is
	// the incarnation its local state was last synchronized with. They
	// diverge between adopting a new primary and completing state
	// transfer from it — a window in which this proxy must not promote.
	epoch      uint64
	stateEpoch uint64
	// view is the primary's join-ordered membership view, refreshed on
	// join and on every sync round; its first live entry is the
	// deterministic successor.
	view []wire.ObjAddr
	// prim is non-nil once this proxy has promoted itself to primary.
	prim *primary
	// failures counts consecutive repair-probe failures of any kind;
	// crossing a threshold is treated as primary-death evidence even when
	// no single error is conclusive.
	failures int
	// degraded counts consecutive *successful* sync rounds during which
	// the health monitor graded the primary's node strongly degraded —
	// the gray-failure analogue of failures (see checkDegradedPrimary).
	degraded int

	localReads atomic.Uint64
	writesSent atomic.Uint64
	applied    atomic.Uint64
	appliedSeq atomic.Uint64
}

// apply is the group delivery callback: one ordered write at a time. The
// leading capability token was verified by the primary before broadcast,
// so it is ignored here.
func (p *Proxy) apply(seq uint64, payload []byte) {
	sid, cseq, request := splitRecord(payload)
	_, method, args, err := core.DecodeRequest(p.rt.Decoder(), request)
	if err != nil {
		// A malformed broadcast would desynchronize this replica; there is
		// no caller to report to, so count it and keep the copy read-only
		// stale rather than crash.
		return
	}
	// The primary already returned results to the writer; replicas apply
	// for state — and, for session-stamped writes, reconstruct the reply
	// deterministically into the dedup table, so a promoted successor can
	// answer the writer's retransmission from cache.
	results, ierr := p.local.Invoke(context.Background(), method, args)
	if sid != 0 {
		commitApplied(p.rt, p.tab, sid, cseq, method, results, ierr)
	}
	p.applied.Add(1)
	p.appliedSeq.Store(seq)
}

// handleRepair answers repair-protocol queries addressed to this proxy's
// member object. kindWhereIs is how peers discover a promoted primary:
// the reply is this proxy's current belief, epoch-stamped so stale
// beliefs lose.
func (p *Proxy) handleRepair(req *rpc.Request) (wire.Kind, []byte, []byte) {
	switch req.Kind {
	case kindWhereIs:
		p.mu.Lock()
		epoch, ctrl := p.epoch, p.ctrl
		p.mu.Unlock()
		reply := wire.AppendUvarint(nil, epoch)
		reply = wire.AppendObjAddr(reply, ctrl)
		return kindWhereIs, reply, nil
	default:
		return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "replica: unexpected kind %v", req.Kind))
	}
}

// Invoke implements core.Proxy.
func (p *Proxy) Invoke(ctx context.Context, method string, args ...any) ([]any, error) {
	p.mu.Lock()
	closed, prim := p.closed, p.prim
	p.mu.Unlock()
	if closed {
		return nil, core.ErrProxyClosed
	}
	if p.isRead(method) {
		// Local reads stay uninstrumented beyond the counter: they are the
		// ns-scale hot path the replicated proxy exists to provide.
		p.localReads.Add(1)
		return p.local.Invoke(ctx, method, args)
	}
	p.writesSent.Add(1)
	if prim != nil {
		// Promoted: this proxy's copy is the authoritative one; the write
		// path is in-process.
		return invokeOnPrimary(ctx, prim, method, args)
	}
	ctx, finish := p.rt.Tracer().StartChild(ctx, "replica.write:", method, p.rt.Where())
	results, err := p.writeToPrimary(ctx, method, args)
	finish(err)
	return results, err
}

// maxWriteAttempts caps a sessioned write's cross-promotion retry loop;
// the ctx deadline is the intended bound, this is the backstop.
const maxWriteAttempts = 50

// writeToPrimary funnels one write through the primary's ordered path.
// The request's envelope carries the span and deadline budget from ctx so
// the primary's apply and broadcast hops land in the same trace and
// abandoned writes cancel server-side. The call goes through the
// runtime's shared circuit breaker, like every other proxy kind's.
//
// With sessions enabled the exactly-once identity is minted ONCE, before
// any attempt, and the loop below retries the SAME (sid, seq) across
// primary death and promotion: each attempt re-reads the control address
// (the heal loop rewrites it when it adopts a successor, and p.prim when
// this proxy promotes itself), so the retransmission lands on the new
// primary — whose inherited dedup table recognizes it if the old primary
// already applied it. Without a session the write stays single-shot:
// re-sending a maybe-applied write would risk double-apply.
func (p *Proxy) writeToPrimary(ctx context.Context, method string, args []any) ([]any, error) {
	sessioned := false
	if sid, _ := core.SessionFromContext(ctx); sid != 0 {
		sessioned = true
	} else if m := p.rt.Sessions(); m != nil && !core.IdempotentFrom(ctx) && !p.rt.IsIdempotent(p.ref.Type, method) {
		sid, seq := m.Next()
		ctx = core.ContextWithSession(ctx, sid, seq)
		sessioned = true
	}
	lowered, err := p.rt.LowerArgs(args)
	if err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	payload, err := core.EncodeRequest(p.ref.Cap, method, lowered)
	if err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	for attempt := 1; ; attempt++ {
		p.mu.Lock()
		ctrl, prim, closed := p.ctrl, p.prim, p.closed
		p.mu.Unlock()
		if closed {
			return nil, core.ErrProxyClosed
		}
		if prim != nil {
			// Promoted locally mid-retry: the in-process path dedups
			// through the shared table under the same identity.
			return invokeOnPrimary(ctx, prim, method, args)
		}
		reply, err := p.rt.GuardedCall(ctx, ctrl, kindWrite, payload)
		if err == nil {
			return core.DecodeResults(p.rt.Decoder(), reply.Payload)
		}
		ierr := core.RemoteToInvokeError(method, err)
		if !sessioned || attempt >= maxWriteAttempts || !retryableWrite(ierr) {
			return nil, ierr
		}
		// Give the heal loop a beat to elect/adopt the successor, then
		// re-present the same identity to whatever primary it found.
		select {
		case <-ctx.Done():
			return nil, ierr
		case <-p.stop:
			return nil, core.ErrProxyClosed
		case <-time.After(p.f.syncInterval):
		}
	}
}

// retryableWrite reports whether a sessioned write may be re-presented:
// the primary is unreachable, fenced, or shedding — conditions failover
// resolves. Everything else (app errors, denial, expiry) is final.
func retryableWrite(err error) bool {
	var ie *core.InvokeError
	if !errors.As(err, &ie) {
		return false
	}
	switch ie.Code {
	case core.CodeUnavailable, core.CodeFenced, core.CodeOverload:
		return true
	default:
		return false
	}
}

// Ref implements core.Proxy.
func (p *Proxy) Ref() codec.Ref { return p.ref }

// Stats reports (reads served locally, writes sent to the primary, writes
// applied by delivery).
func (p *Proxy) Stats() (localReads, writesSent, applied uint64) {
	return p.localReads.Load(), p.writesSent.Load(), p.applied.Load()
}

// AppliedSeq reports the sequence number of the last write applied to the
// local copy (via delivery, log-suffix catch-up, or snapshot transfer).
func (p *Proxy) AppliedSeq() uint64 { return p.appliedSeq.Load() }

// Epoch reports the primary incarnation this proxy currently follows.
func (p *Proxy) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// IsPrimary reports whether this proxy has promoted itself to primary.
func (p *Proxy) IsPrimary() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.prim != nil
}

// Local exposes the local replica (tests verify convergence through it).
func (p *Proxy) Local() StateMachine { return p.local }

// Close implements core.Proxy: leave the group and drop the copy.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	member := p.member
	p.mu.Unlock()

	close(p.stop)
	unregisterStatus(p.rt, p)
	p.rt.ForgetProxy(p.ref.Target)
	if member != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = member.Leave(ctx)
	}
	return nil
}
