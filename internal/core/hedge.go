package core

import (
	"context"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/overload"
)

// Hedged reads. A request whose latency lands in the tail is usually
// slow for a reason local to one server — a GC pause, a queue behind a
// heavy request, a flaky link — so issuing a second copy to an
// *alternate* binding after waiting roughly the p95 latency converts
// the tail into the alternate's median. The races are first-wins: the
// loser's ctx is cancelled the moment either attempt succeeds, and the
// envelope's deadline budget makes the abandoned server stop working on it.
//
// Hedging re-executes requests by design, so it rides the same
// idempotency licensing as failover replay (Runtime.RegisterIdempotent,
// Stub.SetIdempotent, WithIdempotent): a method nobody declared
// replay-safe is never hedged. And because a hedge *adds* load, it is
// the wrong reflex under overload — the delay tracker only shortens the
// hedge delay when observed latency is genuinely low, and a shed
// (CodeOverload) answer from the alternate simply loses the race.

// HedgeConfig tunes hedged reads for a runtime.
type HedgeConfig struct {
	// MinDelay floors the hedge delay: even if observed p95 collapses,
	// the second attempt never launches sooner than this. Default 1ms.
	MinDelay time.Duration
	// MaxDelay caps the hedge delay (a latency spike must not push the
	// hedge past the caller's patience). Default 100×MinDelay.
	MaxDelay time.Duration
}

// WithHedging enables hedged reads on every stub the runtime builds:
// idempotent invocations with a known alternate binding race a delayed
// second attempt against the first, first success wins. The delay
// adapts to the observed p95 invocation latency, clamped to the
// configured bounds.
func WithHedging(cfg HedgeConfig) RuntimeOption {
	return func(rt *Runtime) { rt.hedgeCfg = &cfg }
}

// hedgeState is the runtime-wide hedging machinery: one shared delay
// tracker (all stubs feed it, so the p95 estimate converges fast) and
// the counters E15 reads.
type hedgeState struct {
	tracker  *overload.DelayTracker
	launches *obs.Counter // hedge attempts actually launched
	wins     *obs.Counter // races the hedged attempt won
}

// hedgePair reports the binding pair a hedged invocation would race:
// the current binding and the distinct alternate whose node carries the
// lowest gray-failure score (first-listed wins ties, so without a
// monitor this is the first distinct alternate, as before). If the
// current binding itself is strongly degraded and the alternate scores
// better, the pair is swapped — the healthy binding leads and the
// degraded one becomes the delayed hedge, a pre-send ejection in hedged
// form. No distinct alternate → no hedge (racing a binding against
// itself just doubles load on the slow server).
func (s *Stub) hedgePair() (ref, alt codec.Ref, ok bool) {
	ref = s.Ref()
	best, bestScore, found := s.healthiestAlternate(func(a codec.Ref) bool { return a.Target == ref.Target })
	if !found {
		return ref, codec.Ref{}, false
	}
	if cur := s.rt.HealthScore(ref.Target.Addr.Node); cur >= degradePressureScore && bestScore < cur {
		return best, ref, true
	}
	return ref, best, true
}

// invokeHedged runs one invocation as a first-wins race: the primary
// attempt starts immediately; if it has not answered after the tracked
// p95 delay (or fails in a provably-not-executed way sooner), a second
// attempt goes to the alternate. The first success cancels the other
// attempt's ctx. Both attempts run through callBinding, so forwards,
// breakers, and health evidence work exactly as in the sequential path.
func (s *Stub) invokeHedged(ctx context.Context, method string, lowered []any, ref, alt codec.Ref) ([]any, error) {
	h := s.rt.hedge
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		res    []any
		err    error
		dur    time.Duration
		hedged bool
	}
	ch := make(chan attempt, 2)
	run := func(r codec.Ref, hedged bool) {
		start := time.Now()
		res, err := s.callBinding(hctx, r, method, lowered)
		ch <- attempt{res: res, err: err, dur: time.Since(start), hedged: hedged}
	}
	go run(ref, false)

	timer := time.NewTimer(h.tracker.Delay())
	defer timer.Stop()
	launch := func() {
		h.launches.Inc()
		if sc, traced := obs.SpanFromContext(ctx); traced {
			tr := s.rt.Tracer()
			tr.Record(obs.Span{
				Trace: sc.Trace, ID: tr.NewSpanID(), Parent: sc.Span,
				Name: "hedge:" + alt.Target.String(), Where: s.rt.where,
				Start: time.Now(),
			})
		}
		go run(alt, true)
	}

	launched := false
	pending := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !launched {
				launched = true
				pending++
				launch()
			}
		case a := <-ch:
			pending--
			if a.err == nil {
				h.tracker.Observe(a.dur)
				if a.hedged && launched {
					h.wins.Inc()
				}
				cancel()
				return a.res, nil
			}
			if ctx.Err() != nil {
				return nil, stubError(method, a.err)
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if !launched {
				// The primary failed before the hedge fired. A failure that
				// proves the request never executed turns the hedge into an
				// immediate failover; a real answer ends the invocation.
				if classifyFailure(a.err) == foNone {
					return nil, stubError(method, a.err)
				}
				launched = true
				pending++
				launch()
				continue
			}
			if pending == 0 {
				return nil, stubError(method, firstErr)
			}
		}
	}
}
