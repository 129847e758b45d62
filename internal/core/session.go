package core

import (
	"context"

	"repro/internal/session"
)

// Session propagation. When a runtime is built with WithSessions, its
// stubs mint one (session id, sequence) identity per logical invocation
// of a non-idempotent method and stamp it on the request frame's
// envelope (wire.Envelope.Session, Seq). The identity is allocated ONCE,
// before the failover loop: every retransmission and every alternate
// binding presents the same pair, so a server-side dedup table recognizes
// the retry however it arrives. Idempotent methods (RegisterIdempotent /
// WithIdempotent) skip the stamp entirely — re-execution is harmless by
// declaration, so caching their replies would be pure overhead; the
// licensing survives as exactly that optimization hint.

// WithSessions equips the runtime with a session minter: its stubs stamp
// non-idempotent invocations with exactly-once identities, and failover
// may replay them even when an attempt may have executed (the server's
// dedup table, not the client's caution, prevents double-apply). Off by
// default — a stamped request only helps against dedup-aware servers,
// and deployments opt in per node (proxyd -session-dedup).
func WithSessions() RuntimeOption {
	return func(rt *Runtime) { rt.sessions = session.NewMinter() }
}

// Sessions exposes the runtime's session minter; nil without
// WithSessions.
func (rt *Runtime) Sessions() *session.Minter { return rt.sessions }

// sessCtxKey carries one invocation's session identity.
type sessCtxKey struct{}

type sessID struct{ sid, seq uint64 }

// ContextWithSession stamps ctx with an invocation's exactly-once
// identity; every call that leaves under ctx carries it in its envelope.
// Layers that forward one logical invocation through an inner call path
// (the replica proxy's write path, the shard guard) use it to keep the
// identity attached. A zero sid detaches it: a call a proxy makes beside
// the invocation (a routing-table fetch) must not present the
// invocation's identity, or the reply cached for one answers the other.
func ContextWithSession(ctx context.Context, sid, seq uint64) context.Context {
	if sid == 0 {
		if cur, _ := SessionFromContext(ctx); cur == 0 {
			return ctx
		}
	}
	return context.WithValue(ctx, sessCtxKey{}, sessID{sid, seq})
}

// SessionFromContext reports the session identity ctx carries (zeros
// when unstamped).
func SessionFromContext(ctx context.Context) (sid, seq uint64) {
	s, _ := ctx.Value(sessCtxKey{}).(sessID)
	return s.sid, s.seq
}
