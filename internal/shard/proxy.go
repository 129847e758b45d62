package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/wire"
)

// routeAttempts bounds how many times one invocation re-routes after a
// misroute (stale table) or a frozen key (rebalance in flight) before
// surfacing the error.
const routeAttempts = 6

// Proxy is the client-side sharded proxy: it holds a fetched copy of
// the routing table, sends each single-key invocation straight to the
// owning member (through that member's own proxy — stub or replica),
// and fans multi-key operations out in parallel. A core.CodeMisroute
// refusal means the table went stale under it: it refetches from the
// router and re-routes, invisibly to the caller.
type Proxy struct {
	rt     *core.Runtime
	ref    codec.Ref
	ctrl   wire.ObjAddr
	spec   Spec
	single map[string]bool
	limit  int
	closed atomic.Bool

	mu      sync.Mutex
	epoch   uint64
	ring    *Ring
	members map[string]codec.Ref

	routeCalls   *obs.Counter
	misroutes    *obs.Counter
	scatterCalls *obs.Counter
	fanout       *obs.Histogram
}

func newProxy(rt *core.Runtime, ref codec.Ref, h shardHint) *Proxy {
	scope := "shard[" + h.Name + "]."
	reg := rt.Observer().Registry
	limit := h.ScatterLimit
	if limit <= 0 {
		limit = 8
	}
	return &Proxy{
		rt:           rt,
		ref:          ref,
		ctrl:         wire.ObjAddr{Addr: ref.Target.Addr, Object: h.Ctrl},
		spec:         h.Spec,
		single:       h.Spec.singleSet(),
		limit:        limit,
		routeCalls:   reg.Counter(scope + "route.calls"),
		misroutes:    reg.Counter(scope + "route.misroutes"),
		scatterCalls: reg.Counter(scope + "scatter.calls"),
		fanout:       reg.Histogram(scope + "scatter.fanout"),
	}
}

// Epoch reports the table epoch this proxy last fetched (0 before the
// first route).
func (p *Proxy) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Invoke implements core.Proxy.
func (p *Proxy) Invoke(ctx context.Context, method string, args ...any) ([]any, error) {
	if p.closed.Load() {
		return nil, core.ErrProxyClosed
	}
	if isReserved(method) {
		return nil, core.Errorf(core.CodeDenied, method, "shard: reserved method")
	}
	if single, ok := p.spec.singleFor(method); ok {
		p.scatterCalls.Inc()
		ctx, finish := p.rt.Tracer().StartChild(ctx, "shard:scatter:", method, p.rt.Where())
		res, err := scatterGather(ctx, method, args, p.limit, p.ownerScore, func(ctx context.Context, key string, subArgs []any) ([]any, error) {
			return p.routeKey(ctx, single, key, subArgs)
		})
		p.fanout.Observe(time.Duration(len(args)))
		finish(err)
		return res, err
	}
	if !p.single[method] {
		return nil, core.NoSuchMethod(method)
	}
	key, err := keyOf(method, args)
	if err != nil {
		return nil, err
	}
	ctx, finish := p.rt.Tracer().StartChild(ctx, "shard:route", "", p.rt.Where())
	res, err := p.routeKey(ctx, method, key, args)
	finish(err)
	return res, err
}

// routeKey sends one single-key invocation to the key's owner,
// re-fetching the table and re-routing on misroutes and freezes.
func (p *Proxy) routeKey(ctx context.Context, method, key string, args []any) ([]any, error) {
	p.routeCalls.Inc()
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		if attempt > 0 {
			if err := routeBackoff(ctx, attempt); err != nil {
				return nil, err
			}
			if err := p.refreshTable(ctx); err != nil {
				lastErr = err
				continue
			}
		}
		ring, members, err := p.table(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		owner := ring.Owner(key)
		ref, ok := members[owner]
		if !ok {
			lastErr = fmt.Errorf("%w: owner %q", ErrUnknownMember, owner)
			continue
		}
		mp, err := p.rt.Import(ref)
		if err != nil {
			lastErr = err
			continue
		}
		res, err := mp.Invoke(ctx, method, args...)
		if err == nil || !retryableRoute(err) {
			return res, err
		}
		if isMisroute(err) {
			p.misroutes.Inc()
		}
		lastErr = err
	}
	return nil, lastErr
}

// ownerScore ranks a key for scatter launch order by its owner node's
// gray-failure score (0 when the table is not yet cached — the fetch
// inside routeKey sorts that out).
func (p *Proxy) ownerScore(key string) float64 {
	p.mu.Lock()
	ring, members := p.ring, p.members
	p.mu.Unlock()
	if ring == nil {
		return 0
	}
	ref, ok := members[ring.Owner(key)]
	if !ok {
		return 0
	}
	return p.rt.HealthScore(ref.Target.Addr.Node)
}

// table returns the cached routing table, fetching it on first use.
func (p *Proxy) table(ctx context.Context) (*Ring, map[string]codec.Ref, error) {
	p.mu.Lock()
	if p.ring != nil {
		ring, members := p.ring, p.members
		p.mu.Unlock()
		return ring, members, nil
	}
	p.mu.Unlock()
	if err := p.refreshTable(ctx); err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ring == nil {
		return nil, nil, ErrNoMembers
	}
	return p.ring, p.members, nil
}

// refreshTable fetches the current table from the router's control
// object. The fetch travels high-priority: re-routing around a shed
// (or misrouted) key needs the table, so shedding table fetches behind
// the load that caused them would wedge recovery. It is a call beside
// the invocation, so it borrows ctx's deadline and span, not its identity.
func (p *Proxy) refreshTable(ctx context.Context) error {
	ctx = core.WithPriority(core.ContextWithSession(ctx, 0, 0), wire.PriorityHigh)
	f, err := p.rt.GuardedCall(ctx, p.ctrl, kindTable, nil)
	if err != nil {
		return core.RemoteToInvokeError("shard.table", err)
	}
	epoch, vnodes, names, refs, err := decodeTable(f.Payload)
	if err != nil {
		return core.Errorf(core.CodeInternal, "shard.table", "shard: bad table: %s", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch < p.epoch {
		return nil // raced with a newer fetch
	}
	p.epoch = epoch
	if len(names) == 0 {
		p.ring, p.members = nil, nil
		return nil
	}
	p.ring = NewRing(names, vnodes)
	p.members = refs
	return nil
}

func decodeTable(src []byte) (uint64, int, []string, map[string]codec.Ref, error) {
	epoch, n, err := wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	vnodes, n, err := wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return 0, 0, nil, nil, codec.ErrElementCount
	}
	names := make([]string, 0, count)
	refs := make(map[string]codec.Ref, count)
	for i := uint64(0); i < count; i++ {
		name, n, err := wire.String(src)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		src = src[n:]
		ref, n, err := codec.DecodeRef(src)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		src = src[n:]
		names = append(names, name)
		refs[name] = ref
	}
	return epoch, int(vnodes), names, refs, nil
}

// Ref implements core.Proxy.
func (p *Proxy) Ref() codec.Ref { return p.ref }

// Close implements core.Proxy. Member proxies are shared through the
// runtime's import cache, so closing the shard proxy leaves them alone.
func (p *Proxy) Close() error {
	if p.closed.CompareAndSwap(false, true) {
		p.rt.ForgetProxy(p.ref.Target)
	}
	return nil
}

// Stats reports route and misroute counts (deployment-wide per runtime,
// since the counters live in the metrics registry).
func (p *Proxy) Stats() (routes, misroutes uint64) {
	return p.routeCalls.Load(), p.misroutes.Load()
}

// routeBackoff pauses between route retries (freezes are short).
func routeBackoff(ctx context.Context, attempt int) error {
	d := time.Duration(attempt) * 20 * time.Millisecond
	if d > 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// retryableRoute reports whether a member's refusal means re-routing
// can help: a stale table (misroute), a mid-rebalance freeze
// (unavailable), or a member that never answered at all — it may have
// crashed and been force-removed, so the refreshed table names its
// successor. Answered errors — including fencing — surface: the member
// is alive and meant what it said.
func retryableRoute(err error) bool {
	var ie *core.InvokeError
	if errors.As(err, &ie) {
		return ie.Code == core.CodeMisroute || ie.Code == core.CodeUnavailable
	}
	var re *kernel.RemoteError
	return !errors.As(err, &re)
}

func isMisroute(err error) bool {
	var ie *core.InvokeError
	return errors.As(err, &ie) && ie.Code == core.CodeMisroute
}

// scatterGather fans a multi-key operation out: one sub-invocation per
// argument (a string key, or an []any vector whose first element is the
// key), at most limit in flight. The result vector aligns with the
// arguments; a failed key's slot carries a *KeyError while the others
// still carry their results.
//
// rank (optional) orders the launches: keys are started lowest-rank
// first (stably, so equal ranks keep argument order). Shard layers pass
// the owner node's gray-failure score, so keys owned by degraded
// members launch last — a slow owner's sub-calls cannot occupy every
// concurrency slot and stall the healthy keys queued behind them. The
// result vector still aligns with the arguments regardless of launch
// order.
func scatterGather(ctx context.Context, method string, args []any, limit int, rank func(key string) float64, call func(ctx context.Context, key string, subArgs []any) ([]any, error)) ([]any, error) {
	type entry struct {
		key  string
		args []any
	}
	entries := make([]entry, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case string:
			entries[i] = entry{key: x, args: []any{x}}
		case []any:
			if len(x) == 0 {
				return nil, core.BadArgs(method, "shard: empty key vector")
			}
			k, ok := x[0].(string)
			if !ok {
				return nil, core.BadArgs(method, fmt.Sprintf("shard: key vector must lead with a string key, got %T", x[0]))
			}
			entries[i] = entry{key: k, args: x}
		default:
			return nil, core.BadArgs(method, fmt.Sprintf("shard: multi-key argument must be a key or key vector, got %T", a))
		}
	}
	if limit <= 0 {
		limit = 8
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	if rank != nil {
		ranks := make([]float64, len(entries))
		for i, e := range entries {
			ranks[i] = rank(e.key)
		}
		sort.SliceStable(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })
	}
	out := make([]any, len(entries))
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for _, i := range order {
		e := entries[i]
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, e entry) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := call(ctx, e.key, e.args)
			switch {
			case err != nil:
				out[i] = &KeyError{Key: e.key, Err: err}
			case len(res) > 0:
				out[i] = res[0]
			default:
				out[i] = nil
			}
		}(i, e)
	}
	wg.Wait()
	return out, nil
}
