package cache

import (
	"context"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ProxyStats counts client-side cache behaviour.
type ProxyStats struct {
	Hits          uint64
	Misses        uint64
	Writes        uint64
	Invalidations uint64
	Stale         uint64 // brownout serves (degraded reads under overload)
}

// Proxy is the caching client-side representative. It keeps a result cache
// keyed by (method, arguments); reads hit locally when the cached version
// is current (callback mode) or the lease is fresh (lease mode); writes go
// through the coordinator. It implements core.Proxy.
type Proxy struct {
	rt   *core.Runtime
	ref  codec.Ref
	h    hint
	now  func() time.Time
	ctrl wire.ObjAddr

	reads map[string]bool

	mu       sync.Mutex
	version  uint64 // last version heard from the coordinator
	entries  map[string]cacheEntry
	cbObject wire.ObjectID
	closed   bool

	// Registry-backed counters, scoped by importer->target so every proxy
	// stays distinguishable even under a cluster-shared registry.
	hits   *obs.Counter
	misses *obs.Counter
	writes *obs.Counter
	invs   *obs.Counter
	stale  *obs.Counter // brownout serves (degraded reads)
}

type cacheEntry struct {
	results []any
	version uint64
	filled  time.Time
}

func newProxy(rt *core.Runtime, ref codec.Ref, h hint) (*Proxy, error) {
	p := &Proxy{
		rt:      rt,
		ref:     ref,
		h:       h,
		now:     time.Now,
		ctrl:    wire.ObjAddr{Addr: ref.Target.Addr, Object: h.Ctrl},
		reads:   make(map[string]bool, len(h.Reads)),
		entries: make(map[string]cacheEntry),
	}
	for _, r := range h.Reads {
		p.reads[r] = true
	}
	scope := "cache.proxy[" + rt.Where() + "->" + ref.Target.String() + "]."
	reg := rt.Observer().Registry
	p.hits = reg.Counter(scope + "hits")
	p.misses = reg.Counter(scope + "misses")
	p.writes = reg.Counter(scope + "writes")
	p.invs = reg.Counter(scope + "invalidations")
	p.stale = reg.Counter(scope + "stale")
	if h.Mode == ModeCallback {
		// Install the callback object and join the sharer set. The
		// version in the reply seeds our view.
		p.cbObject = rt.Kernel().Register(kernel.HandlerFunc(p.handleInvalidate))
		cb := wire.ObjAddr{Addr: rt.Addr(), Object: p.cbObject}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Present the highest version we have observed (zero for a fresh
		// proxy); the coordinator's clock absorbs it. From Register on,
		// handleInvalidate may run, so p.version is touched under p.mu.
		p.mu.Lock()
		seen := p.version
		p.mu.Unlock()
		payload := wire.AppendUvarint(wire.AppendObjAddr(nil, cb), seen)
		reply, err := rt.Client().Call(ctx, p.ctrl, kindRegister, payload)
		if err != nil {
			rt.Kernel().Unregister(p.cbObject)
			return nil, err
		}
		v, _, err := wire.Uvarint(reply)
		if err != nil {
			rt.Kernel().Unregister(p.cbObject)
			return nil, err
		}
		// An invalidation that overtook the reply carries a newer version.
		p.mu.Lock()
		if v > p.version {
			p.version = v
		}
		p.mu.Unlock()
	}
	return p, nil
}

// handleInvalidate processes coordinator invalidations (the push half of
// the private protocol). It flushes the cache and acknowledges.
func (p *Proxy) handleInvalidate(ktx *kernel.Context, f *wire.Frame) {
	v, _, err := wire.Uvarint(f.Payload)
	if err == nil {
		p.mu.Lock()
		if v > p.version {
			p.version = v
		}
		p.flushLocked()
		p.mu.Unlock()
		p.invs.Inc()
	}
	if f.Flags&wire.FlagOneWay == 0 {
		_ = ktx.Respond(f, wire.KindAck, nil)
	}
}

// Invoke implements core.Proxy.
func (p *Proxy) Invoke(ctx context.Context, method string, args ...any) ([]any, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, core.ErrProxyClosed
	}
	lowered, err := p.rt.LowerArgs(args)
	if err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	// The payload lives in a pooled buffer until the invocation resolves:
	// a cache hit never materializes a key string (the map lookup below
	// converts in place without allocating), which is most of what makes
	// the hit path cheap. The buffer is released on every exit; fill and
	// the transports copy what they keep.
	pb := wire.GetBuf()
	defer pb.Release()
	if pb.B, err = core.AppendRequest(pb.B[:0], p.ref.Cap, method, lowered); err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	payload := pb.B

	if !p.reads[method] {
		return p.write(ctx, method, payload)
	}
	// The cache key is the request payload: what varies per invocation
	// (span, deadline budget) rides the frame's envelope and never
	// reaches the keyed bytes. Cache hits are served without a span — they are
	// pure local work on the ns scale; misses cross the network and are
	// traced like any other hop.
	if results, ok := p.cachedResult(payload); ok {
		p.hits.Inc()
		return results, nil
	}
	p.misses.Inc()
	ctx, finish := p.rt.Tracer().StartChild(ctx, "cache.miss:", method, p.rt.Where())
	results, err := p.readThrough(ctx, method, payload)
	finish(err)
	return results, err
}

// readThrough fetches a read from the coordinator and fills the cache.
// When the coordinator sheds the read under overload and the service
// configured a staleness window, the proxy degrades instead of failing:
// it serves the retained (stale) entry, bounded by the window, and
// records the degradation as a span so traces show which answers were
// brownout serves.
func (p *Proxy) readThrough(ctx context.Context, method string, payload []byte) ([]any, error) {
	reply, err := p.coordCall(ctx, kindRead, payload)
	if err != nil {
		if core.IsOverload(err) {
			if results, ok := p.staleResult(payload); ok {
				p.stale.Inc()
				if sc, traced := obs.SpanFromContext(ctx); traced {
					tr := p.rt.Tracer()
					tr.Record(obs.Span{
						Trace: sc.Trace, ID: tr.NewSpanID(), Parent: sc.Span,
						Name: "degraded:" + method, Where: p.rt.Where(),
						Start: p.now(),
					})
				}
				return results, nil
			}
		}
		return nil, core.RemoteToInvokeError(method, err)
	}
	version, results, err := decodeVersioned(p.rt.Decoder(), reply)
	if err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	p.fill(payload, version, results)
	return results, nil
}

// coordCall sends one control-protocol request to the coordinator through
// the runtime's shared circuit breaker, under the envelope ctx implies
// (deadline budget, trace span). The cache proxy thus rides the same
// fault-tolerance substrate as plain stubs: a coordinator node that stops
// answering trips the breaker for every proxy pointed at it.
func (p *Proxy) coordCall(ctx context.Context, kind wire.Kind, payload []byte) ([]byte, error) {
	f, err := p.rt.GuardedCall(ctx, p.ctrl, kind, payload)
	if err != nil {
		return nil, err
	}
	return f.Payload, nil
}

func (p *Proxy) cachedResult(payload []byte) ([]any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// string(payload) in the index expression compiles to an allocation-free
	// lookup; a key string only exists once fill stores one.
	e, ok := p.entries[string(payload)]
	if !ok {
		return nil, false
	}
	var expired bool
	switch p.h.Mode {
	case ModeCallback:
		expired = e.version != p.version
	case ModeLease:
		expired = p.now().Sub(e.filled) >= p.h.LeaseTTL
	}
	if expired {
		// A stale entry is still brownout material while it is younger
		// than the staleness window; beyond it (or with brownout off)
		// it is dead weight.
		if p.h.StaleWindow <= 0 || p.now().Sub(e.filled) >= p.h.StaleWindow {
			delete(p.entries, string(payload))
		}
		return nil, false
	}
	return e.results, true
}

// staleResult reports the retained entry for a read the coordinator just
// shed, if brownout is configured and the entry is within the staleness
// window. Freshness is irrelevant here — the normal path already missed.
func (p *Proxy) staleResult(payload []byte) ([]any, bool) {
	if p.h.StaleWindow <= 0 {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[string(payload)]
	if !ok || p.now().Sub(e.filled) >= p.h.StaleWindow {
		return nil, false
	}
	return e.results, true
}

// flushLocked invalidates the whole cache. Without a staleness window
// that means dropping every entry; with one, entries young enough to
// serve during a brownout are retained — they are version- or
// lease-stale, so the normal read path will never return them.
func (p *Proxy) flushLocked() {
	if p.h.StaleWindow <= 0 {
		p.entries = make(map[string]cacheEntry)
		return
	}
	cutoff := p.now().Add(-p.h.StaleWindow)
	for k, e := range p.entries {
		if e.filled.Before(cutoff) {
			delete(p.entries, k)
		}
	}
}

// fill stores a read result unless the world moved on while the read was
// in flight (a newer version was announced), which prevents a slow read
// from resurrecting stale data after an invalidation.
func (p *Proxy) fill(payload []byte, version uint64, results []any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.h.Mode {
	case ModeCallback:
		if version < p.version {
			return
		}
		if version > p.version {
			// The read observed a version we haven't been told about yet;
			// adopt it and drop anything older.
			p.version = version
			p.flushLocked()
		}
		// The map assignment copies payload into a real key string, so the
		// caller is free to recycle its buffer afterwards.
		p.entries[string(payload)] = cacheEntry{results: results, version: version, filled: p.now()}
	case ModeLease:
		p.entries[string(payload)] = cacheEntry{results: results, filled: p.now()}
	}
}

func (p *Proxy) write(ctx context.Context, method string, payload []byte) ([]any, error) {
	p.writes.Inc()
	ctx, finish := p.rt.Tracer().StartChild(ctx, "cache.write:", method, p.rt.Where())
	results, err := p.writeThrough(ctx, method, payload)
	finish(err)
	return results, err
}

func (p *Proxy) writeThrough(ctx context.Context, method string, payload []byte) ([]any, error) {
	reply, err := p.coordCall(ctx, kindWrite, payload)
	if err != nil {
		return nil, core.RemoteToInvokeError(method, err)
	}
	version, results, err := decodeVersioned(p.rt.Decoder(), reply)
	if err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	// Our own copy is stale now; flush and adopt the post-write version.
	// This is a full drop, not flushLocked: retaining entries we ourselves
	// just overwrote would let a brownout violate read-your-writes.
	p.mu.Lock()
	if version > p.version {
		p.version = version
	}
	p.entries = make(map[string]cacheEntry)
	p.mu.Unlock()
	return results, nil
}

// Ref implements core.Proxy.
func (p *Proxy) Ref() codec.Ref { return p.ref }

// Stats returns cache counters.
func (p *Proxy) Stats() ProxyStats {
	return ProxyStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Writes:        p.writes.Load(),
		Invalidations: p.invs.Load(),
		Stale:         p.stale.Load(),
	}
}

// Close implements core.Proxy: it leaves the sharer set and releases the
// callback object.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	cbObj := p.cbObject
	p.entries = nil
	p.mu.Unlock()

	p.rt.ForgetProxy(p.ref.Target)
	if p.h.Mode == ModeCallback {
		cb := wire.ObjAddr{Addr: p.rt.Addr(), Object: cbObj}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, _ = p.rt.Client().Call(ctx, p.ctrl, kindDeregister, wire.AppendObjAddr(nil, cb))
		p.rt.Kernel().Unregister(cbObj)
	}
	return nil
}
