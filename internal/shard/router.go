package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/wire"
)

// kindTable is the private frame kind serving routing-table fetches:
// proxies send their known epoch and get back the current table.
const kindTable = wire.KindCustom + 50

// rebalanceAttempts bounds how many fresh-epoch retries one membership
// change makes before giving up (each retry restarts the whole handoff;
// the steps are idempotent under a new epoch).
const rebalanceAttempts = 5

// ErrUnknownMember reports a membership operation naming no member.
var ErrUnknownMember = errors.New("shard: unknown member")

// ErrNoMembers reports routing with an empty member set.
var ErrNoMembers = errors.New("shard: no members")

// Router owns one sharded service's authoritative routing table and
// runs its rebalances. It also implements core.Service: exported under
// the shard type, it serves plain-stub clients by routing server-side,
// so a client that never registered the shard factory still reaches the
// right member (one extra hop).
type Router struct {
	rt *core.Runtime
	f  *Factory

	mu      sync.Mutex
	epoch   uint64
	ring    *Ring // committed table (nil before the first rebalance)
	members map[string]codec.Ref
	retired map[string]codec.Ref // removed, handoff still pending
	proxies map[string]core.Proxy

	// rebalanceMu serializes rebalances without blocking table reads.
	rebalanceMu sync.Mutex

	rebalances *obs.Counter
	rebalFails *obs.Counter
	keysGauge  func(member string) *obs.Gauge
}

// NewRouter builds the routing home for one sharded service. Add the
// initial members, then export the router itself through the factory:
//
//	r := shard.NewRouter(rt, f)
//	_ = r.AddMember(ctx, "m0", m0Ref)
//	ref, err := rt.ExportVia(f, r, "ShardedKV")
func NewRouter(rt *core.Runtime, f *Factory) *Router {
	scope := "shard[" + f.name + "]."
	reg := rt.Observer().Registry
	return &Router{
		rt:         rt,
		f:          f,
		members:    make(map[string]codec.Ref),
		retired:    make(map[string]codec.Ref),
		proxies:    make(map[string]core.Proxy),
		rebalances: reg.Counter(scope + "rebalance.count"),
		rebalFails: reg.Counter(scope + "rebalance.failures"),
		keysGauge:  func(m string) *obs.Gauge { return reg.Gauge(scope + "keys." + m) },
	}
}

// Name reports the shard deployment's label (the factory's WithName).
func (r *Router) Name() string { return r.f.name }

// Epoch reports the committed table epoch (0 before the first member).
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Members reports the desired member names, sorted.
func (r *Router) Members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.members))
	for n := range r.members {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddMember admits an exported member (plain or replica-backed) as a
// shard and rebalances: key ranges the new ring assigns to it are
// frozen at their old owners, handed off, and only then does the new
// table commit.
func (r *Router) AddMember(ctx context.Context, name string, ref codec.Ref) error {
	r.mu.Lock()
	r.members[name] = ref
	delete(r.retired, name)
	r.mu.Unlock()
	return r.Rebalance(ctx)
}

// RemoveMember retires a member and rebalances its key ranges onto the
// survivors. Without force, an unreachable member aborts the change (no
// table commits, no keys are lost); with force the new table commits
// even if the member's keys could not be pulled — the right call when
// the member's node is dead and its store was not replicated elsewhere.
func (r *Router) RemoveMember(ctx context.Context, name string, force bool) error {
	r.mu.Lock()
	ref, ok := r.members[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	delete(r.members, name)
	r.retired[name] = ref
	r.mu.Unlock()
	err := r.rebalanceRetries(ctx, force)
	if err != nil && !force {
		// Undo: the member stays until it can be drained.
		r.mu.Lock()
		if _, readded := r.members[name]; !readded {
			r.members[name] = ref
		}
		delete(r.retired, name)
		r.mu.Unlock()
	}
	return err
}

// Rebalance recomputes the ring from the desired member set and moves
// key ranges until the table commits, retrying under fresh epochs.
func (r *Router) Rebalance(ctx context.Context) error {
	return r.rebalanceRetries(ctx, false)
}

func (r *Router) rebalanceRetries(ctx context.Context, force bool) error {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	// Handoff steps are what un-hotspots an overloaded member; shedding
	// them behind the very user traffic they relieve would deadlock the
	// rebalance. Every member invocation below rides the high class.
	ctx = core.WithPriority(ctx, wire.PriorityHigh)
	var err error
	var floor uint64
	for attempt := 0; attempt < rebalanceAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 50 * time.Millisecond):
			}
		}
		var target uint64
		if target, err = r.rebalanceOnce(ctx, floor, force); err == nil {
			return nil
		}
		// The failed attempt may have committed its epoch at some members
		// before dying; re-proposing the same epoch would be fenced there
		// forever. The next attempt must go strictly above it.
		floor = target
		r.rebalFails.Inc()
	}
	return fmt.Errorf("shard: rebalance failed after %d attempts: %w", rebalanceAttempts, err)
}

// rebalanceOnce is one epoch-fenced handoff attempt: enumerate, freeze,
// pull, push, commit, drop. A failure before the table commit leaves
// every guard on the old table (moved ranges possibly frozen — the next
// attempt's fresh epoch re-freezes and supersedes them); the commit
// itself is idempotent per guard.
func (r *Router) rebalanceOnce(ctx context.Context, floor uint64, force bool) (uint64, error) {
	r.mu.Lock()
	target := r.epoch + 1
	if target <= floor {
		target = floor + 1
	}
	desired := make(map[string]codec.Ref, len(r.members))
	for n, ref := range r.members {
		desired[n] = ref
	}
	retired := make(map[string]codec.Ref, len(r.retired))
	for n, ref := range r.retired {
		retired[n] = ref
	}
	oldRing := r.ring
	r.mu.Unlock()

	_, finish := r.rt.Tracer().StartSpan(ctx, "shard:rebalance", r.rt.Where())
	err := r.rebalanceAttempt(ctx, target, desired, retired, oldRing, force)
	finish(err)
	if err == nil {
		r.rebalances.Inc()
	}
	return target, err
}

func (r *Router) rebalanceAttempt(ctx context.Context, target uint64, desired, retired map[string]codec.Ref, oldRing *Ring, force bool) error {
	names := make([]string, 0, len(desired))
	for n := range desired {
		names = append(names, n)
	}
	sort.Strings(names)
	newRing := NewRing(names, r.f.vnodes)

	// Sources that may hold keys: every member of the committed ring plus
	// every retired member. Before the first table (no ring), the desired
	// members themselves — bootstrap data loaded at epoch 0 must settle
	// onto its owners.
	sources := make(map[string]codec.Ref)
	if oldRing != nil {
		for _, n := range oldRing.Members() {
			if ref, ok := desired[n]; ok {
				sources[n] = ref
			}
		}
	} else {
		for n, ref := range desired {
			sources[n] = ref
		}
	}
	for n, ref := range retired {
		sources[n] = ref
	}

	counts := make(map[string]int, len(desired))
	for n := range desired {
		counts[n] = 0
	}

	// Enumerate, freeze, pull, push — per source, moved keys only.
	srcNames := make([]string, 0, len(sources))
	for n := range sources {
		srcNames = append(srcNames, n)
	}
	sort.Strings(srcNames)
	for _, src := range srcNames {
		_, isRetired := retired[src]
		err := r.handoffFrom(ctx, target, src, sources[src], newRing, desired, counts)
		if err != nil {
			if isRetired && force {
				continue // accept the loss: the member is gone
			}
			return fmt.Errorf("handoff from %q: %w", src, err)
		}
	}

	// Commit the new table to every desired member; a failure here leaves
	// a mixed-epoch group, which the next attempt's strictly-newer epoch
	// resolves. Retired members get the table best-effort — it fences
	// them if they are still alive.
	for _, n := range names {
		if _, err := r.invokeMember(ctx, n, desired[n], methodTable, tableArgs(target, r.f.vnodes, names)...); err != nil {
			return fmt.Errorf("commit table to %q: %w", n, err)
		}
	}
	for n, ref := range retired {
		_, _ = r.invokeMember(ctx, n, ref, methodTable, tableArgs(target, r.f.vnodes, names)...)
	}

	r.mu.Lock()
	r.epoch = target
	r.ring = newRing
	for n := range retired {
		delete(r.retired, n)
		delete(r.proxies, n)
	}
	r.mu.Unlock()
	for n, c := range counts {
		r.keysGauge(n).Set(int64(c))
	}
	return nil
}

// handoffFrom moves every key src holds that the new ring assigns
// elsewhere. Drops at the source happen only after the commit would be
// safe — but since a failed attempt restarts wholesale, dropping here
// (pre-commit) could lose keys; instead drops are deferred until after
// the source adopts the new table, at which point the moved keys are
// unreachable there anyway (misroute-fenced). The deferred drop rides
// the same epoch as the commit.
func (r *Router) handoffFrom(ctx context.Context, target uint64, src string, srcRef codec.Ref, newRing *Ring, desired map[string]codec.Ref, counts map[string]int) error {
	res, err := r.invokeMember(ctx, src, srcRef, methodKeys, int64(target))
	if err != nil {
		return err
	}
	held, err := resultKeyList(res)
	if err != nil {
		return err
	}
	moved := make([]any, 0)
	kept := 0
	for _, k := range held {
		if newRing.Owner(k) != src {
			moved = append(moved, k)
		} else {
			kept++
		}
	}
	if _, ok := counts[src]; ok {
		counts[src] = kept
	}
	if len(moved) == 0 {
		return nil
	}
	if _, err := r.invokeMember(ctx, src, srcRef, methodFreeze, int64(target), moved); err != nil {
		return err
	}
	res, err = r.invokeMember(ctx, src, srcRef, methodPull, int64(target), moved)
	if err != nil {
		return err
	}
	kvs, err := resultKVMap(res)
	if err != nil {
		return err
	}
	// The source's dedup entries for the moved keys ride along (opaque to
	// the router) so the new owners keep exactly-once semantics across
	// the handoff. Older guards reply without the blob.
	var dedup []byte
	if len(res) > 1 {
		dedup, _ = res[1].([]byte)
	}
	byDst := make(map[string]map[string]any)
	for k, v := range kvs {
		dst := newRing.Owner(k)
		if byDst[dst] == nil {
			byDst[dst] = make(map[string]any)
		}
		byDst[dst][k] = v
	}
	dsts := make([]string, 0, len(byDst))
	for d := range byDst {
		dsts = append(dsts, d)
	}
	sort.Strings(dsts)
	for _, dst := range dsts {
		ref, ok := desired[dst]
		if !ok {
			return fmt.Errorf("key range owner %q is not a member", dst)
		}
		if _, err := r.invokeMember(ctx, dst, ref, methodPush, int64(target), byDst[dst], dedup); err != nil {
			return err
		}
		counts[dst] += len(byDst[dst])
	}
	// Deferred cleanup: drop travels with the commit epoch, so a guard
	// only honors it once it has (at least) the new table.
	go r.dropLater(src, srcRef, target, moved)
	return nil
}

// dropLater discards moved keys at their old owner after the commit.
// Best-effort: a missed drop leaves dead state behind the misroute
// fence, re-collected by the next rebalance's enumeration.
func (r *Router) dropLater(src string, srcRef codec.Ref, target uint64, moved []any) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ctx = core.WithPriority(ctx, wire.PriorityHigh)
	_, _ = r.invokeMember(ctx, src, srcRef, methodDrop, int64(target), moved)
}

func tableArgs(target uint64, vnodes int, names []string) []any {
	ms := make([]any, len(names))
	for i, n := range names {
		ms[i] = n
	}
	return []any{int64(target), int64(vnodes), ms}
}

// invokeMember calls one member through its own proxy factory (stub,
// replica proxy, ...), which is what lets handoff steps ride the
// member's replication and failover machinery.
func (r *Router) invokeMember(ctx context.Context, name string, ref codec.Ref, method string, args ...any) ([]any, error) {
	p, err := r.memberProxy(name, ref)
	if err != nil {
		return nil, err
	}
	return p.Invoke(ctx, method, args...)
}

func (r *Router) memberProxy(name string, ref codec.Ref) (core.Proxy, error) {
	r.mu.Lock()
	if p, ok := r.proxies[name]; ok {
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()
	p, err := r.rt.Import(ref)
	if err != nil {
		return nil, fmt.Errorf("shard: import member %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.proxies[name]; ok {
		return prior, nil
	}
	r.proxies[name] = p
	return p, nil
}

func resultKeyList(res []any) ([]string, error) {
	if len(res) == 0 {
		return nil, nil
	}
	raw, ok := res[0].([]any)
	if !ok {
		return nil, fmt.Errorf("shard: malformed key enumeration (%T)", res[0])
	}
	keys := make([]string, 0, len(raw))
	for _, v := range raw {
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("shard: malformed key enumeration element (%T)", v)
		}
		keys = append(keys, s)
	}
	return keys, nil
}

func resultKVMap(res []any) (map[string]any, error) {
	if len(res) == 0 {
		return nil, nil
	}
	m, ok := res[0].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("shard: malformed pulled state (%T)", res[0])
	}
	return m, nil
}

// table snapshots the committed routing table for proxies and the
// status service.
func (r *Router) table() (uint64, *Ring, map[string]codec.Ref) {
	r.mu.Lock()
	defer r.mu.Unlock()
	members := make(map[string]codec.Ref, len(r.members))
	for n, ref := range r.members {
		members[n] = ref
	}
	return r.epoch, r.ring, members
}

// Invoke implements core.Service: the router facade. Plain-stub clients
// invoke the sharded service as if it were one object; the router
// routes server-side, so the shard layout stays invisible to them.
func (r *Router) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	if isReserved(method) {
		return nil, core.Errorf(core.CodeDenied, method, "shard: reserved method")
	}
	if single, ok := r.f.spec.singleFor(method); ok {
		return r.scatterFacade(ctx, method, single, args)
	}
	if !r.f.single[method] {
		return nil, core.NoSuchMethod(method)
	}
	key, err := keyOf(method, args)
	if err != nil {
		return nil, err
	}
	return r.routeKey(ctx, method, key, args)
}

// routeKey routes one single-key invocation from the authoritative
// table. Misroutes and freezes can still happen concurrently with a
// rebalance; both re-read the (possibly advanced) table and retry.
func (r *Router) routeKey(ctx context.Context, method, key string, args []any) ([]any, error) {
	ctx, finish := r.rt.Tracer().StartChild(ctx, "shard:route", "", r.rt.Where())
	res, err := r.routeKeyLocked(ctx, method, key, args)
	finish(err)
	return res, err
}

func (r *Router) routeKeyLocked(ctx context.Context, method, key string, args []any) ([]any, error) {
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		if attempt > 0 {
			if err := routeBackoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		_, ring, members := r.table()
		if ring == nil || len(members) == 0 {
			return nil, ErrNoMembers
		}
		owner := ring.Owner(key)
		ref, ok := members[owner]
		if !ok {
			lastErr = fmt.Errorf("%w: owner %q", ErrUnknownMember, owner)
			continue
		}
		res, err := r.invokeMember(ctx, owner, ref, method, args...)
		if err == nil || !retryableRoute(err) {
			return res, err
		}
		lastErr = err
	}
	return nil, lastErr
}

func (r *Router) scatterFacade(ctx context.Context, method, single string, args []any) ([]any, error) {
	out, err := scatterGather(ctx, method, args, r.f.scatterLimit, r.ownerScore, func(ctx context.Context, key string, subArgs []any) ([]any, error) {
		return r.routeKey(ctx, single, key, subArgs)
	})
	if err != nil {
		return nil, err
	}
	// Crossing back to a stub client: lower per-key errors to their wire
	// form.
	for i, v := range out {
		if ke, ok := v.(*KeyError); ok {
			out[i] = ke.lower()
		}
	}
	return out, nil
}

// ownerScore ranks a key for scatter launch order by its owner node's
// gray-failure score.
func (r *Router) ownerScore(key string) float64 {
	_, ring, members := r.table()
	if ring == nil {
		return 0
	}
	ref, ok := members[ring.Owner(key)]
	if !ok {
		return 0
	}
	return r.rt.HealthScore(ref.Target.Addr.Node)
}

// handleTable serves kindTable fetches from shard proxies.
func (r *Router) handleTable() func(payload []byte) (wire.Kind, []byte, []byte) {
	return func(payload []byte) (wire.Kind, []byte, []byte) {
		epoch, ring, members := r.table()
		names := []string(nil)
		if ring != nil {
			names = ring.Members()
		}
		buf := wire.AppendUvarint(nil, epoch)
		buf = wire.AppendUvarint(buf, uint64(r.f.vnodes))
		buf = wire.AppendUvarint(buf, uint64(len(names)))
		for _, n := range names {
			buf = wire.AppendString(buf, n)
			ref, ok := members[n]
			if !ok {
				return 0, nil, core.EncodeInvokeError("shard.table",
					core.Errorf(core.CodeUnavailable, "shard.table", "shard: member %q mid-change", n))
			}
			buf = codec.AppendRef(buf, ref)
		}
		return kindTable, buf, nil
	}
}

// watchHealth auto-retires members whose node the failure detector
// declares dead (factory option WithAutoRemove). Replica-backed members
// usually should not enable this: their groups fail over on their own,
// and the member ref stays routable through promotion.
func (r *Router) watchHealth() {
	mon := r.rt.Health()
	if mon == nil {
		return
	}
	mon.Subscribe(func(node wire.NodeID, from, to health.State) {
		if to != health.StateDead {
			return
		}
		go r.retireNode(node)
	})
}

func (r *Router) retireNode(node wire.NodeID) {
	r.mu.Lock()
	var victims []string
	for n, ref := range r.members {
		if ref.Target.Addr.Node == node {
			victims = append(victims, n)
		}
	}
	r.mu.Unlock()
	for _, n := range victims {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = r.RemoveMember(ctx, n, true)
		cancel()
	}
}

func isReserved(method string) bool {
	switch method {
	case methodKeys, methodFreeze, methodPull, methodPush, methodTable, methodDrop:
		return true
	}
	return false
}
