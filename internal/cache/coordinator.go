package cache

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// coordinator is the server side of the caching protocol: it owns the
// object's version number, the sharer set (callback mode), and the
// write-through path. It registers one kernel object (the "control
// object") whose id is shipped in the reference hint.
type coordinator struct {
	rt     *core.Runtime
	inner  core.Service
	isRead func(string) bool
	mode   Mode
	sync   bool
	// cap mirrors the export's capability token; the private protocol
	// enforces it just like the standard path does.
	cap uint64

	// clock issues object versions. A Lamport clock rather than a bare
	// counter: registering proxies present the highest version they have
	// seen and the coordinator observes it, so versions never regress even
	// if a coordinator is rebuilt for an object whose proxies outlived it.
	clock vclock.Lamport

	mu      sync.Mutex
	sharers map[wire.ObjAddr]bool // callback objects of registered proxies

	// Registry-backed counters, scoped by the exported target address.
	writes      *obs.Counter
	invsSent    *obs.Counter
	sharerGauge *obs.Gauge

	srv *rpc.Server
}

func newCoordinator(rt *core.Runtime, inner core.Service, isRead func(string) bool, mode Mode, syncInv bool, target wire.ObjAddr) *coordinator {
	co := &coordinator{
		rt:      rt,
		inner:   inner,
		isRead:  isRead,
		mode:    mode,
		sync:    syncInv,
		sharers: make(map[wire.ObjAddr]bool),
	}
	scope := "cache.coord[" + target.String() + "]."
	reg := rt.Observer().Registry
	co.writes = reg.Counter(scope + "writes")
	co.invsSent = reg.Counter(scope + "invalidations_sent")
	co.sharerGauge = reg.Gauge(scope + "sharers")
	co.srv = rpc.NewServer(rpc.HandlerFunc(co.handle))
	return co
}

// handle processes the private protocol frames addressed to the control
// object.
func (co *coordinator) handle(req *rpc.Request) (wire.Kind, []byte, []byte) {
	switch req.Kind {
	case kindRegister:
		cb, n, err := wire.DecodeObjAddr(req.Frame.Payload)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("register", err)
		}
		// The registrant may append the highest version it has observed;
		// fold it into the clock so our versions stay ahead of any copy
		// minted by a predecessor coordinator.
		if rest := req.Frame.Payload[n:]; len(rest) > 0 {
			if seen, _, err := wire.Uvarint(rest); err == nil && seen > 0 {
				co.clock.Observe(seen)
			}
		}
		co.mu.Lock()
		co.sharers[cb] = true
		co.sharerGauge.Set(int64(len(co.sharers)))
		co.mu.Unlock()
		return kindRegister, wire.AppendUvarint(nil, co.clock.Now()), nil
	case kindDeregister:
		cb, _, err := wire.DecodeObjAddr(req.Frame.Payload)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("deregister", err)
		}
		co.mu.Lock()
		delete(co.sharers, cb)
		co.sharerGauge.Set(int64(len(co.sharers)))
		co.mu.Unlock()
		return kindDeregister, nil, nil
	case kindRead:
		return co.invoke(req, true)
	case kindWrite:
		return co.invoke(req, false)
	default:
		return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "cache: unexpected kind %v", req.Kind))
	}
}

func (co *coordinator) invoke(req *rpc.Request, read bool) (wire.Kind, []byte, []byte) {
	cap, method, args, err := core.DecodeRequest(co.rt.Decoder(), req.Frame.Payload)
	if err != nil {
		return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "%s", err))
	}
	if co.cap != 0 && cap != co.cap {
		return 0, nil, core.EncodeInvokeError(method, core.Errorf(core.CodeDenied, method, "capability required"))
	}
	if read && !co.isRead(method) {
		// A proxy asked to cache a write: refuse, protecting coherence
		// against version-skewed or buggy proxies.
		return 0, nil, core.EncodeInvokeError(method, core.Errorf(core.CodeBadArgs, method, "method is not a read"))
	}
	ctx, cancel := core.ServeContext(core.WithCaller(context.Background(), req.From), &req.Frame.Envelope)
	defer cancel()
	finish := func(error) {}
	if req.Frame.Envelope.Trace != 0 {
		name := "cache.serve.write:" + method
		if read {
			name = "cache.serve.read:" + method
		}
		ctx, finish = co.rt.Tracer().StartSpan(ctx, name, co.rt.Where())
	}
	results, err := co.inner.Invoke(ctx, method, args)
	if err != nil {
		finish(err)
		return 0, nil, core.EncodeInvokeError(method, err)
	}
	lowered, err := co.rt.LowerArgs(results)
	if err != nil {
		finish(err)
		return 0, nil, core.EncodeInvokeError(method, core.Errorf(core.CodeInternal, method, "%s", err))
	}
	var version uint64
	if read {
		version = co.clock.Now()
	} else {
		version = co.afterWrite(ctx, req.From)
	}
	finish(nil)
	reply, err := encodeVersioned(version, lowered)
	if err != nil {
		return 0, nil, core.EncodeInvokeError(method, core.Errorf(core.CodeInternal, method, "%s", err))
	}
	if read {
		return kindRead, reply, nil
	}
	return kindWrite, reply, nil
}

// afterWrite bumps the version and invalidates every cached copy except
// the writer's own (the writer flushes locally). Returns the new version.
// With sync invalidation the call blocks until all sharers acknowledge;
// those calls derive from ctx, so a traced write shows its invalidation
// round-trips as child spans.
func (co *coordinator) afterWrite(ctx context.Context, writer wire.Addr) uint64 {
	v := co.clock.Tick()
	co.writes.Inc()
	co.mu.Lock()
	var targets []wire.ObjAddr
	if co.mode == ModeCallback {
		for cb := range co.sharers {
			if cb.Addr == writer {
				continue
			}
			targets = append(targets, cb)
		}
		co.invsSent.Add(uint64(len(targets)))
	}
	co.mu.Unlock()

	if len(targets) == 0 {
		return v
	}
	payload := wire.AppendUvarint(nil, v)
	if co.sync {
		var wg sync.WaitGroup
		for _, cb := range targets {
			wg.Add(1)
			go func(cb wire.ObjAddr) {
				defer wg.Done()
				ictx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
				defer cancel()
				// Best effort: a dead sharer must not wedge writes forever.
				_, _ = co.rt.Client().Call(ictx, cb, wire.KindInvalidate, payload)
			}(cb)
		}
		wg.Wait()
		return v
	}
	for _, cb := range targets {
		f := &wire.Frame{
			Kind:    wire.KindInvalidate,
			Flags:   wire.FlagOneWay,
			ReqID:   co.rt.Kernel().NextReqID(),
			Dst:     cb.Addr,
			Object:  cb.Object,
			Payload: payload,
		}
		_ = co.rt.Kernel().Send(f)
	}
	return v
}

// wrapped is the service registered at the *standard* invocation path for
// this export: plain stub clients interoperate with caching clients, and
// their writes still invalidate cached copies.
type wrapped struct {
	co *coordinator
}

// Invoke implements core.Service.
func (w *wrapped) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	results, err := w.co.inner.Invoke(ctx, method, args)
	if err != nil {
		return nil, err
	}
	if !w.co.isRead(method) {
		writer := wire.Addr{}
		if from, ok := core.CallerFrom(ctx); ok {
			writer = from
		}
		w.co.afterWrite(ctx, writer)
	}
	return results, nil
}

// Stats reports coordinator counters (exposed for tests and benches).
type CoordinatorStats struct {
	Version           uint64
	Sharers           int
	Writes            uint64
	InvalidationsSent uint64
}

func (co *coordinator) stats() CoordinatorStats {
	co.mu.Lock()
	sharers := len(co.sharers)
	co.mu.Unlock()
	return CoordinatorStats{
		Version:           co.clock.Now(),
		Sharers:           sharers,
		Writes:            co.writes.Load(),
		InvalidationsSent: co.invsSent.Load(),
	}
}

// kernelHandler exposes the rpc server for registration.
func (co *coordinator) kernelHandler() kernel.Handler { return co.srv }

var _ fmt.Stringer = Mode(0)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeCallback:
		return "callback"
	case ModeLease:
		return "lease"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}
