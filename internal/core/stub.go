package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// StubFactory builds stub proxies: the minimal proxy, equivalent to
// classic RPC stub code. Every invocation marshals its arguments, crosses
// to the server under reliable request/reply, and unmarshals the results.
// It is the runtime's default factory and the baseline every smart proxy
// is measured against. Purely client-side: NopExport supplies its Export
// half.
type StubFactory struct{ NopExport }

var _ ProxyFactory = StubFactory{}

// New implements ProxyFactory.
func (StubFactory) New(rt *Runtime, ref codec.Ref) (Proxy, error) {
	return NewStub(rt, ref), nil
}

// Stub is the forwarding proxy. It tracks migration forwards (a call
// answered with KindForward rebinds to the object's new location and
// retries transparently), and it masks node failure: when a binding stops
// answering, the stub fails over to an alternate binding (SetAlternates)
// or asks its rebinder (SetRebinder, installed by naming.Resolve) for a
// fresh one — all behind the unchanged Invoke interface, which is the
// paper's point: how a service survives failures is the proxy's private
// business.
//
// Failover discipline: a call that provably never reached the service
// (open breaker, send error, "no such object/context" from a restarted
// node) may always be redirected; a call that *might* have executed (the
// retransmit budget ran out with no answer) is only replayed when the
// method was declared idempotent (Runtime.RegisterIdempotent, stub-level
// SetIdempotent, or a ctx marked WithIdempotent). Anything else surfaces
// the error: masking it could execute a non-idempotent operation twice.
type Stub struct {
	rt     *Runtime
	closed atomic.Bool

	mu       sync.Mutex
	ref      codec.Ref
	alts     []codec.Ref
	rebinder func(context.Context) (codec.Ref, bool)
	idem     map[string]bool

	calls     atomic.Uint64
	forwards  atomic.Uint64
	failovers atomic.Uint64
}

// NewStub builds a stub proxy without going through the factory registry
// (proxy implementations embed stubs for their write paths).
func NewStub(rt *Runtime, ref codec.Ref) *Stub {
	return &Stub{rt: rt, ref: ref}
}

// SetAlternates installs the bindings the stub may fail over to. Pass the
// full replica set (the current binding included): the stub skips
// whichever it already tried, so listing the primary costs nothing and
// lets a stub that failed over come back later.
func (s *Stub) SetAlternates(refs []codec.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alts = append([]codec.Ref(nil), refs...)
}

// AddAlternate appends one failover binding.
func (s *Stub) AddAlternate(ref codec.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alts = append(s.alts, ref)
}

// SetRebinder installs a callback that produces a fresh binding when
// every known one has failed — typically a naming re-lookup
// (naming.Resolve installs one automatically). It is consulted at most
// once per invocation.
func (s *Stub) SetRebinder(fn func(context.Context) (codec.Ref, bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebinder = fn
}

// SetIdempotent declares methods replay-safe for this stub alone (the
// runtime-wide registry is Runtime.RegisterIdempotent).
func (s *Stub) SetIdempotent(methods ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idem == nil {
		s.idem = make(map[string]bool)
	}
	for _, m := range methods {
		s.idem[m] = true
	}
}

// Invoke implements Proxy. When the caller's ctx carries a trace (opened
// via obs.Tracer.StartSpan, e.g. by proxyctl -trace), the stub records an
// invoke span and the request's envelope carries the span for the
// server side to parent under. Untraced invocations skip
// tracing entirely — the hot path stays a single context lookup.
func (s *Stub) Invoke(ctx context.Context, method string, args ...any) ([]any, error) {
	if s.closed.Load() {
		return nil, ErrProxyClosed
	}
	s.calls.Add(1)
	s.rt.invokeCalls.Inc()
	ctx, finish := s.rt.Tracer().StartChild(ctx, "invoke:", method, s.rt.where)
	res, err := s.invoke(ctx, method, args)
	finish(err)
	return res, err
}

func (s *Stub) invoke(ctx context.Context, method string, args []any) ([]any, error) {
	lowered, err := s.rt.encodeOutbound(args)
	if err != nil {
		return nil, &InvokeError{Code: CodeInternal, Method: method, Msg: err.Error()}
	}

	// Hedged reads (WithHedging): an idempotent invocation with a known
	// alternate races a delayed second attempt instead of walking the
	// sequential failover loop — see hedge.go.
	if s.rt.hedge != nil && s.isIdempotent(ctx, method) {
		if ref, alt, ok := s.hedgePair(); ok {
			return s.invokeHedged(ctx, method, lowered, ref, alt)
		}
	}

	// Session stamping (WithSessions): non-idempotent invocations get one
	// exactly-once identity, allocated HERE — before the failover loop —
	// so every retransmission and every alternate binding presents the
	// same (sid, seq) and a dedup-aware server recognizes the replay.
	// Idempotent methods stay unstamped: replaying them is harmless by
	// declaration, so caching their replies would be pure overhead. A ctx
	// already stamped (a layer above forwarding one logical invocation)
	// keeps its identity.
	sessioned := false
	if sid, _ := SessionFromContext(ctx); sid != 0 {
		sessioned = true
	} else if s.rt.sessions != nil && !s.isIdempotent(ctx, method) {
		sid, seq := s.rt.sessions.Next()
		ctx = ContextWithSession(ctx, sid, seq)
		sessioned = true
	}

	// The failover loop: try the current binding; on a redirectable
	// failure, move to the next untried alternate (or one rebinder
	// lookup) and go again. Tried targets are remembered so a stale
	// rebinder or a duplicate alternate cannot loop us; the map is
	// allocated lazily because the first binding almost always answers.
	var tried map[wire.ObjAddr]bool
	usedRebinder := false
	ref := s.Ref()
	// Pre-send ejection: nothing has gone out yet, so steering this call
	// to a healthier alternate can never replay an executed operation —
	// no idempotency licensing needed, unlike failover below. The stub's
	// binding is NOT rebound: the redirect is per-call, so traffic flows
	// back the moment the primary's score recovers.
	if next, ok := s.ejectBinding(ref); ok {
		s.rt.invokeEjections.Inc()
		ref = next
	}
	for {
		res, err := s.callBinding(ctx, ref, method, lowered)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			// Out of budget: whatever happened, there is no time to mask it.
			return nil, stubError(method, err)
		}
		class := classifyFailure(err)
		// A maybe-sent failure is replayable when the method is idempotent
		// (re-execution is harmless) OR the call carries a session identity
		// (the server's dedup table suppresses re-execution). The licensing
		// gate thus retires for session-stamped calls; it survives only as
		// the skip-the-stamp optimization above.
		if class == foNone || (class == foMaybeSent && !sessioned && !s.isIdempotent(ctx, method)) {
			return nil, stubError(method, err)
		}
		if tried == nil {
			tried = make(map[wire.ObjAddr]bool, 2)
		}
		tried[ref.Target] = true
		next, ok := s.nextBinding(ctx, tried, &usedRebinder)
		if !ok {
			return nil, stubError(method, err)
		}
		s.failovers.Add(1)
		s.rt.invokeFailovers.Inc()
		if sc, traced := obs.SpanFromContext(ctx); traced {
			tr := s.rt.Tracer()
			tr.Record(obs.Span{
				Trace: sc.Trace, ID: tr.NewSpanID(), Parent: sc.Span,
				Name: "failover:" + next.Target.String(), Where: s.rt.where,
				Start: time.Now(), Err: err.Error(),
			})
		}
		s.Rebind(next)
		ref = next
	}
}

// callBinding runs the invocation against one binding, following
// migration forwards. Transport-level failures return unconverted, so
// invoke can classify whether failing over is safe. The remaining
// deadline budget is taken afresh each time the request leaves — per
// binding, per forwarding hop (GuardedCall) and per retransmission (the
// rpc layer; see deadline.go).
func (s *Stub) callBinding(ctx context.Context, ref codec.Ref, method string, lowered []any) ([]any, error) {
	// The request payload lives in a pooled buffer: every transport copies
	// it before GuardedCall returns (netsim clones the frame, TCP encodes
	// into its staging buffer), so releasing at return cannot leave an
	// alias behind.
	pb := wire.GetBuf()
	defer pb.Release()
	var err error
	if pb.B, err = AppendRequest(pb.B[:0], ref.Cap, method, lowered); err != nil {
		return nil, &InvokeError{Code: CodeInternal, Method: method, Msg: err.Error()}
	}
	payload := pb.B
	sc, _ := obs.SpanFromContext(ctx)

	// Follow forwarding responses a bounded number of times: an object in
	// the middle of a migration storm must not loop us forever. The bound
	// comfortably exceeds any realistic tombstone chain (E9 sweeps to 32).
	const maxForwards = 64
	for hop := 0; ; hop++ {
		hopStart := time.Now()
		resp, err := s.rt.GuardedCall(ctx, ref.Target, wire.KindRequest, payload)
		if err != nil {
			return nil, err
		}
		// The stub is the response's one owner. Decoding copies every
		// value out of the payload (strings, bytes, a Ref's hint), so the
		// frame goes back to the reply pool as soon as it is decoded.
		switch resp.Kind {
		case wire.KindForward:
			newRef, err := DecodeForward(resp.Payload)
			resp.Release()
			if hop >= maxForwards {
				return nil, &InvokeError{Code: CodeUnavailable, Method: method, Msg: "forwarding chain too long"}
			}
			if err != nil {
				return nil, &InvokeError{Code: CodeInternal, Method: method, Msg: err.Error()}
			}
			if newRef.Cap != ref.Cap {
				if pb.B, err = AppendRequest(pb.B[:0], newRef.Cap, method, lowered); err != nil {
					return nil, &InvokeError{Code: CodeInternal, Method: method, Msg: err.Error()}
				}
				payload = pb.B
			}
			s.Rebind(newRef)
			ref = newRef
			s.forwards.Add(1)
			s.rt.invokeForwards.Inc()
			if tr := s.rt.Tracer(); sc.Trace != 0 {
				tr.Record(obs.Span{
					Trace: sc.Trace, ID: tr.NewSpanID(), Parent: sc.Span,
					Name: "forward:" + newRef.Target.String(), Where: s.rt.where,
					Start: hopStart, Dur: time.Since(hopStart),
				})
			}
			continue
		default:
			res, err := DecodeResults(s.rt.decoder(), resp.Payload)
			resp.Release()
			return res, err
		}
	}
}

// failoverClass grades a failed attempt by what it proves.
type failoverClass int

const (
	// foNone: a real answer (an application error, a denial). Not a node
	// failure; failing over would be wrong.
	foNone failoverClass = iota
	// foNotSent: the request provably never reached the service, so
	// redirecting it cannot double-execute anything.
	foNotSent
	// foMaybeSent: no answer arrived, but the request may have executed.
	// Replay only under an idempotency declaration.
	foMaybeSent
)

func classifyFailure(err error) failoverClass {
	var re *kernel.RemoteError
	if errors.As(err, &re) {
		// A no-route answer (wire.FlagNoRoute) is what a restarted (or
		// wrong) node's kernel says when the export is not there, and an
		// overload pushback (wire.FlagPushback) means the admission
		// controller shed the frame before dispatch: either way the
		// invocation provably did not run, so redirecting it cannot
		// double-execute anything. Anything else — including application
		// errors whose text happens to resemble the kernel's — is a real
		// answer from the service.
		if re.NoRoute || re.Pushback {
			return foNotSent
		}
		return foNone
	}
	var ie *InvokeError
	if errors.As(err, &ie) {
		return foNone
	}
	switch {
	case errors.Is(err, ErrCircuitOpen),
		errors.Is(err, netsim.ErrNodeCrashed),
		errors.Is(err, netsim.ErrUnknownNode):
		return foNotSent
	case errors.Is(err, rpc.ErrTooManyRetries),
		errors.Is(err, kernel.ErrClosed),
		errors.Is(err, netsim.ErrClosed):
		return foMaybeSent
	}
	return foNone
}

func (s *Stub) isIdempotent(ctx context.Context, method string) bool {
	if IdempotentFrom(ctx) {
		return true
	}
	s.mu.Lock()
	local := s.idem[method]
	typeName := s.ref.Type
	s.mu.Unlock()
	return local || s.rt.IsIdempotent(typeName, method)
}

// ejectBinding proposes a healthier alternate to use in place of ref
// when the monitor grades ref's node as strongly degraded (score at or
// above the soft-pressure threshold) and some alternate scores strictly
// better. Callers invoke it before anything is sent.
func (s *Stub) ejectBinding(ref codec.Ref) (codec.Ref, bool) {
	if s.rt.monitor == nil {
		return ref, false
	}
	cur := s.rt.HealthScore(ref.Target.Addr.Node)
	if cur < degradePressureScore {
		return ref, false
	}
	best, score, ok := s.healthiestAlternate(func(a codec.Ref) bool { return a.Target == ref.Target })
	if !ok || score >= cur {
		return ref, false
	}
	return best, true
}

// healthiestAlternate picks, among the alternates skip does not exclude,
// the one whose node carries the lowest gray-failure score, and reports
// that score. The first-listed wins ties, so without a monitor it is the
// first alternate skip lets through.
func (s *Stub) healthiestAlternate(skip func(codec.Ref) bool) (best codec.Ref, score float64, ok bool) {
	s.mu.Lock()
	alts := append([]codec.Ref(nil), s.alts...)
	s.mu.Unlock()
	for _, a := range alts {
		if skip(a) {
			continue
		}
		if sc := s.rt.HealthScore(a.Target.Addr.Node); !ok || sc < score {
			best, score, ok = a, sc, true
		}
	}
	return best, score, ok
}

// nextBinding picks the healthiest untried alternate, falling back to one
// rebinder lookup per invocation.
func (s *Stub) nextBinding(ctx context.Context, tried map[wire.ObjAddr]bool, usedRebinder *bool) (codec.Ref, bool) {
	if best, _, ok := s.healthiestAlternate(func(a codec.Ref) bool { return tried[a.Target] }); ok {
		return best, true
	}
	s.mu.Lock()
	rb := s.rebinder
	s.mu.Unlock()
	if rb != nil && !*usedRebinder {
		*usedRebinder = true
		if ref, ok := rb(ctx); ok && !tried[ref.Target] {
			return ref, true
		}
	}
	return codec.Ref{}, false
}

// stubError converts a raw attempt error into what Invoke surfaces.
func stubError(method string, err error) error {
	var ie *InvokeError
	if errors.As(err, &ie) {
		return ie
	}
	return RemoteToInvokeError(method, err)
}

// Ref implements Proxy.
func (s *Stub) Ref() codec.Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref
}

func (s *Stub) target() wire.ObjAddr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref.Target
}

// Rebind points the stub at a new location (migration and failover).
func (s *Stub) Rebind(newRef codec.Ref) {
	s.mu.Lock()
	old := s.ref.Target
	s.ref = newRef
	s.mu.Unlock()
	if old != newRef.Target {
		s.rt.ForgetProxy(old)
	}
}

// Stats reports how many invocations and forward-rebinds this stub served.
func (s *Stub) Stats() (calls, forwards uint64) {
	return s.calls.Load(), s.forwards.Load()
}

// Failovers reports how many times this stub redirected a call to an
// alternate binding.
func (s *Stub) Failovers() uint64 { return s.failovers.Load() }

// Close implements Proxy.
func (s *Stub) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.rt.ForgetProxy(s.target())
	}
	return nil
}
