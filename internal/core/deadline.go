package core

import (
	"context"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Deadline propagation. A client with a ctx deadline has a shrinking
// budget; work a server performs after that budget expires is wasted —
// nobody awaits the reply. So the remaining budget rides the request
// frame's envelope (wire.Envelope.Budget) next to the span, and servers
// derive their handler ctx from it, cancelling abandoned work.
//
// The budget is relative (a duration, not an absolute time), so it is
// immune to clock skew between nodes; the cost is that delay the envelope
// cannot see does not count against it — queueing delay before the
// server applies the budget. Retransmit delay, by contrast, IS counted:
// the rpc layer stores the shrunken remaining budget in the envelope
// before every retransmission, so a request that spent several retries
// in flight presents its current budget, not its original one. What
// slack remains errs on the side of the server doing slightly too much
// work rather than cancelling live calls — the client's own ctx still
// bounds what it will wait for.
//
// The wire format lives in wire/envelope.go; this file keeps the policy:
// which ctx values become envelope fields where a call leaves, and how
// servers turn them back into a ctx.

// requestEnvelope derives a call's envelope from its ctx: the admission
// class (WithPriority), the exactly-once identity (ContextWithSession),
// what remains of the deadline, and the span. It is the one place ctx
// values become wire fields; GuardedCall attaches the result to the
// request frame.
func requestEnvelope(ctx context.Context) (e wire.Envelope) {
	e.Priority = PriorityFrom(ctx)
	e.Session, e.Seq = SessionFromContext(ctx)
	if dl, ok := ctx.Deadline(); ok {
		e.Budget = time.Until(dl)
	}
	sc, _ := obs.SpanFromContext(ctx)
	e.Trace, e.Span = uint64(sc.Trace), uint64(sc.Span)
	return e
}

// ServeContext is requestEnvelope's inverse, for the server that handles
// the request: ctx with the caller's exactly-once identity attached (so
// layers the service forwards through — replica write path, shard guard
// — keep it on their inner calls), the caller's span for onward hops to
// chain under, and the caller's remaining budget as its deadline, so
// abandoned work cancels instead of completing into the void. The
// CancelFunc is never nil.
func ServeContext(ctx context.Context, e *wire.Envelope) (context.Context, context.CancelFunc) {
	if e.Session != 0 {
		ctx = ContextWithSession(ctx, e.Session, e.Seq)
	}
	if e.Trace != 0 {
		ctx = obs.ContextWithSpan(ctx, obs.SpanContext{Trace: obs.TraceID(e.Trace), Span: obs.SpanID(e.Span)})
	}
	if e.Budget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, e.Budget)
}

// AppendRequestCtx, SplitHeaders and DecodeRequestFull treat the envelope
// as a payload prefix. No product code does: they stay, as compositions
// of the envelope codec, for benchmark/ladder.go and benchmark/trace.go
// until the benchmark-only PR.

// AppendRequestCtx appends ctx's envelope, then the request.
func AppendRequestCtx(dst []byte, ctx context.Context, cap uint64, method string, args []any) ([]byte, error) {
	return AppendRequest(requestEnvelope(ctx).Append(dst), cap, method, args)
}

// SplitHeaders parses an envelope off the front of payload.
func SplitHeaders(payload []byte) (sc obs.SpanContext, budget time.Duration, body []byte) {
	e, body, _ := wire.ParseEnvelope(payload)
	return obs.SpanContext{Trace: obs.TraceID(e.Trace), Span: obs.SpanID(e.Span)}, e.Budget, body
}

// DecodeRequestFull is SplitHeaders, then DecodeRequest.
func DecodeRequestFull(d *codec.Decoder, payload []byte) (sc obs.SpanContext, budget time.Duration, cap uint64, method string, args []any, err error) {
	sc, budget, payload = SplitHeaders(payload)
	cap, method, args, err = DecodeRequest(d, payload)
	return sc, budget, cap, method, args, err
}

// priCtxKey marks a ctx with the admission-priority class its
// invocations travel in.
type priCtxKey struct{}

// WithPriority marks every invocation under ctx with an admission
// priority class: the request frame's envelope carries it
// (wire.Envelope.Priority), and overloaded servers shed low before
// normal and never shed high. System traffic the mesh depends on —
// replica syncs, shard rebalance steps — stamps wire.PriorityHigh;
// bulk best-effort work may stamp wire.PriorityLow.
func WithPriority(ctx context.Context, p wire.Priority) context.Context {
	if p == wire.PriorityNormal {
		return ctx
	}
	return context.WithValue(ctx, priCtxKey{}, p)
}

// PriorityFrom reports the admission class ctx was marked with
// (wire.PriorityNormal when unmarked).
func PriorityFrom(ctx context.Context) wire.Priority {
	p, _ := ctx.Value(priCtxKey{}).(wire.Priority)
	return p
}

// idemCtxKey marks a ctx whose invocations the caller declares idempotent,
// licensing failover replay even when an attempt may have executed.
type idemCtxKey struct{}

// WithIdempotent marks every invocation under ctx as safe to replay
// against an alternate binding: re-executing it yields the same outcome.
// This is the per-call complement of Runtime.RegisterIdempotent.
func WithIdempotent(ctx context.Context) context.Context {
	return context.WithValue(ctx, idemCtxKey{}, true)
}

// IdempotentFrom reports whether ctx was marked by WithIdempotent.
func IdempotentFrom(ctx context.Context) bool {
	v, _ := ctx.Value(idemCtxKey{}).(bool)
	return v
}
