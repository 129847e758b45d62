package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/wire"
)

// RuntimeOption configures a Runtime.
type RuntimeOption func(*Runtime)

// WithClient substitutes a pre-configured rpc client (retry intervals,
// attempt bounds). By default the runtime builds one with rpc defaults.
func WithClient(c *rpc.Client) RuntimeOption {
	return func(rt *Runtime) { rt.client = c }
}

// WithDefaultFactory sets the factory used for imported types that have no
// registered factory. The default default is the stub factory; pass nil to
// make unregistered imports fail with ErrNoFactory instead.
func WithDefaultFactory(f ProxyFactory) RuntimeOption {
	return func(rt *Runtime) {
		rt.defaultFactory = f
		rt.defaultFactorySet = true
	}
}

// WithObserver shares an observability sink (metrics registry + tracer)
// with this runtime. By default each runtime gets a private observer;
// tests and clusters pass one shared instance so spans from every context
// land in a single ring and reconstruct as one tree.
func WithObserver(o *obs.Observer) RuntimeOption {
	return func(rt *Runtime) {
		if o != nil {
			rt.observer = o
		}
	}
}

// WithBreakerConfig tunes the per-destination circuit breakers guarding
// every call issued through GuardedCall. Defaults: 3 consecutive
// transport failures open a breaker for 1 s.
func WithBreakerConfig(cfg health.BreakerConfig) RuntimeOption {
	return func(rt *Runtime) { rt.breakerCfg = cfg }
}

// WithHealth connects a failure-detection monitor: every GuardedCall
// outcome feeds it as passive evidence, sharpening its verdicts beyond
// what periodic probing alone sees.
func WithHealth(m *health.Monitor) RuntimeOption {
	return func(rt *Runtime) { rt.monitor = m }
}

// Runtime is the proxy machinery for one context: the export table (local
// services reachable from elsewhere), the import table (proxies installed
// here), and the proxy-factory registry that lets each service type choose
// its own proxy implementation.
type Runtime struct {
	ktx    *kernel.Context
	client *rpc.Client

	observer *obs.Observer
	where    string // cached Addr().String(), used in span and metric names
	// runtime-wide invocation counters (per-proxy stats stay on the proxies)
	invokeCalls     *obs.Counter
	invokeForwards  *obs.Counter
	invokeFailovers *obs.Counter
	invokeEjections *obs.Counter
	serveCalls      *obs.Counter
	circuitRejects  *obs.Counter

	breakerCfg health.BreakerConfig
	breakers   *health.BreakerSet
	monitor    *health.Monitor // optional (WithHealth)

	hedgeCfg *HedgeConfig // optional (WithHedging)
	hedge    *hedgeState  // built in NewRuntime when hedgeCfg is set

	sessions *session.Minter // optional (WithSessions)

	defaultFactory    ProxyFactory
	defaultFactorySet bool

	// dec is the runtime's shared ref-installing decoder; Decoder is
	// stateless and safe for concurrent use, so one instance serves every
	// call instead of allocating a decoder (plus hook closure) per call.
	dec *codec.Decoder

	mu        sync.Mutex
	factories map[string]ProxyFactory
	exports   map[wire.ObjectID]*exportRecord
	bySvc     map[any]*exportRecord
	proxies   map[wire.ObjAddr]Proxy
	idem      map[string]map[string]bool // type name → replay-safe methods
}

type exportRecord struct {
	ref    codec.Ref
	svc    Service // the original (unwrapped) service
	server *serverObject
}

// NewRuntime builds the proxy runtime for a kernel context.
func NewRuntime(ktx *kernel.Context, opts ...RuntimeOption) *Runtime {
	rt := &Runtime{
		ktx:       ktx,
		factories: make(map[string]ProxyFactory),
		exports:   make(map[wire.ObjectID]*exportRecord),
		bySvc:     make(map[any]*exportRecord),
		proxies:   make(map[wire.ObjAddr]Proxy),
		idem:      make(map[string]map[string]bool),
	}
	for _, o := range opts {
		o(rt)
	}
	if rt.observer == nil {
		rt.observer = obs.NewObserver()
	}
	rt.where = ktx.Addr().String()
	scope := "core[" + rt.where + "]."
	rt.invokeCalls = rt.observer.Registry.Counter(scope + "invoke.calls")
	rt.invokeForwards = rt.observer.Registry.Counter(scope + "invoke.forwards")
	rt.invokeFailovers = rt.observer.Registry.Counter(scope + "invoke.failovers")
	rt.invokeEjections = rt.observer.Registry.Counter(scope + "invoke.ejections")
	rt.serveCalls = rt.observer.Registry.Counter(scope + "serve.calls")
	rt.circuitRejects = rt.observer.Registry.Counter(scope + "circuit.rejects")
	rt.breakers = health.NewBreakerSet(rt.breakerCfg, rt.observer.Registry, scope)
	if rt.hedgeCfg != nil {
		rt.hedge = &hedgeState{
			tracker:  overload.NewDelayTracker(rt.hedgeCfg.MinDelay, rt.hedgeCfg.MaxDelay),
			launches: rt.observer.Registry.Counter(scope + "hedge.launches"),
			wins:     rt.observer.Registry.Counter(scope + "hedge.wins"),
		}
	}
	if rt.client == nil {
		rt.client = rpc.NewClient(ktx, rpc.WithObserver(rt.observer))
	}
	if !rt.defaultFactorySet {
		rt.defaultFactory = StubFactory{}
	}
	rt.dec = &codec.Decoder{RefHook: func(r codec.Ref) (any, error) {
		p, err := rt.Import(r)
		if err != nil {
			return nil, err
		}
		return p, nil
	}}
	return rt
}

// Addr reports the context address this runtime lives in.
func (rt *Runtime) Addr() wire.Addr { return rt.ktx.Addr() }

// Kernel exposes the underlying kernel context for proxy implementations.
func (rt *Runtime) Kernel() *kernel.Context { return rt.ktx }

// Client exposes the runtime's reliable-call client for proxy
// implementations.
func (rt *Runtime) Client() *rpc.Client { return rt.client }

// Observer exposes the runtime's observability sink (never nil).
func (rt *Runtime) Observer() *obs.Observer { return rt.observer }

// Tracer is shorthand for Observer().Tracer.
func (rt *Runtime) Tracer() *obs.Tracer { return rt.observer.Tracer }

// Where reports this runtime's context address in string form (the
// location tag spans record).
func (rt *Runtime) Where() string { return rt.where }

// InvokeCount reports how many proxy invocations this runtime has served,
// for use as the operation counter of obs.RegisterFastPathMetrics.
func (rt *Runtime) InvokeCount() uint64 { return rt.invokeCalls.Load() }

// Breakers exposes the runtime's per-destination circuit breakers.
func (rt *Runtime) Breakers() *health.BreakerSet { return rt.breakers }

// Health exposes the attached failure monitor; nil without WithHealth.
func (rt *Runtime) Health() *health.Monitor { return rt.monitor }

// HealthScore reports the monitor's gray-failure score for a node in
// [0,1] (0 healthy, 1 suspect/dead), or 0 when no monitor is attached —
// without health evidence every destination looks equally fine, and
// score-aware selection degenerates to the original orderings. Proxy
// layers use it to prefer or deprioritize destinations.
func (rt *Runtime) HealthScore(n wire.NodeID) float64 {
	if rt.monitor == nil {
		return 0
	}
	return rt.monitor.Score(n)
}

// RegisterIdempotent declares that the named methods of a service type
// are safe to replay: re-executing one against an alternate binding
// yields the same outcome. Failover-aware stubs only rebind-and-replay an
// invocation that may already have executed when its method is declared
// here (or the call's ctx is marked with WithIdempotent).
func (rt *Runtime) RegisterIdempotent(typeName string, methods ...string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	set, ok := rt.idem[typeName]
	if !ok {
		set = make(map[string]bool)
		rt.idem[typeName] = set
	}
	for _, m := range methods {
		set[m] = true
	}
}

// IsIdempotent reports whether the method was declared replay-safe for
// the type.
func (rt *Runtime) IsIdempotent(typeName, method string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.idem[typeName][method]
}

// degradePressureScore is the health score at or above which an
// answered call to a degraded destination counts as soft breaker
// pressure (see health.Breaker.Pressure) instead of a success.
const degradePressureScore = 0.75

// GuardedCall is Client().CallEnvelope behind the destination node's
// circuit breaker, with the outcome fed back to the breaker and (when
// attached) the health monitor. It is where a call leaves: the request
// carries the envelope ctx implies (requestEnvelope) and payload stays
// whatever the proxy's private protocol says. Every proxy kind issues its
// remote calls through it, and breakers are keyed per node — one failing
// node trips one shared breaker however many proxies (or contexts on that
// node) the calls target. An open breaker rejects immediately with
// ErrCircuitOpen — failing fast instead of burning a retransmit budget
// against a node already known to be down.
func (rt *Runtime) GuardedCall(ctx context.Context, dst wire.ObjAddr, kind wire.Kind, payload []byte) (*wire.Frame, error) {
	br := rt.breakers.For(dst.Addr.Node)
	ok, probe := br.Admit()
	if !ok {
		rt.circuitRejects.Inc()
		return nil, fmt.Errorf("%w: %s", ErrCircuitOpen, dst.Addr)
	}
	start := time.Now()
	f, err := rt.client.CallEnvelope(ctx, dst, kind, requestEnvelope(ctx), payload)
	switch {
	case err == nil || isRemoteAnswer(err):
		// Any answer — even an error frame — proves the node serves. The
		// round-trip time feeds the monitor's gray-failure score, and a
		// destination the monitor grades as strongly degraded earns soft
		// breaker pressure instead of a clean success: a node that answers
		// every call 10× too slowly eventually trips its breaker and gets
		// ejected, exactly like one that stops answering.
		pressured := false
		if rt.monitor != nil {
			rt.monitor.ReportLatency(dst.Addr.Node, time.Since(start))
			st := rt.monitor.Status(dst.Addr.Node)
			pressured = st.State == health.StateDegraded && st.Score >= degradePressureScore
		}
		if pressured {
			br.Pressure()
		} else {
			br.Success()
		}
	case isNodeFailure(err):
		br.Failure()
		if rt.monitor != nil {
			rt.monitor.ReportFailure(dst.Addr.Node)
		}
	default:
		// ctx cancellation or local errors: no evidence about the node, so
		// the monitor hears nothing. The half-open probe must still report,
		// though — an unreported probe stalls recovery until the breaker's
		// probe deadline — and the conservative reading of "the probe
		// learned nothing" is that the node is not yet proven healthy.
		if probe {
			br.Failure()
		}
	}
	return f, err
}

// isRemoteAnswer reports whether err carries a response frame from the
// destination (the node is reachable, the call just failed).
func isRemoteAnswer(err error) bool {
	var re *kernel.RemoteError
	return errors.As(err, &re)
}

// isNodeFailure reports whether err means the destination never answered:
// the evidence a breaker and a failure detector count. kernel.ErrClosed
// and netsim.ErrClosed are deliberately absent — they report the LOCAL
// kernel or network handle shutting down, which says nothing about the
// remote node's health.
func isNodeFailure(err error) bool {
	return errors.Is(err, rpc.ErrTooManyRetries) ||
		errors.Is(err, netsim.ErrNodeCrashed) ||
		errors.Is(err, netsim.ErrUnknownNode)
}

// RegisterProxyType installs the factory for a service type name. In the
// paper, the service *ships* its proxy code to the importing context; Go
// cannot load remote code safely, so deployments register the factory in
// every runtime (the service side still controls which factory that is —
// see DESIGN.md, substitutions).
func (rt *Runtime) RegisterProxyType(name string, f ProxyFactory) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.factories[name] = f
}

// factoryFor resolves the factory for a type name.
func (rt *Runtime) factoryFor(name string) (ProxyFactory, error) {
	rt.mu.Lock()
	f, ok := rt.factories[name]
	def := rt.defaultFactory
	rt.mu.Unlock()
	if ok {
		return f, nil
	}
	if def != nil {
		return def, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoFactory, name)
}

// ExportOption configures one export.
type ExportOption func(*exportConfig)

type exportConfig struct {
	protected bool
}

// Protected mints an unforgeable capability token for this export and
// embeds it in the returned reference: invocations that do not present it
// are denied. Only contexts that were *given* the reference (directly or
// through reference-passing) can reach the object — the proxy layer as a
// protection boundary, per the paper. Note that anyone holding the
// reference can pass it on; revocation requires unexporting.
func Protected() ExportOption {
	return func(c *exportConfig) { c.protected = true }
}

// Export makes svc reachable from other contexts under the given type
// name, returning the reference to hand out. Exporting the same service
// twice returns the original reference. The type's factory may wrap the
// service with server-side coordination logic (its Export half) and
// attach a private hint to the reference.
func (rt *Runtime) Export(svc Service, typeName string, opts ...ExportOption) (codec.Ref, error) {
	var cfg exportConfig
	for _, o := range opts {
		o(&cfg)
	}
	key, comparable := svcKey(svc)
	if comparable {
		rt.mu.Lock()
		if rec, ok := rt.bySvc[key]; ok {
			rt.mu.Unlock()
			return rec.ref, nil
		}
		rt.mu.Unlock()
	}

	srv := newServerObject(rt, svc)
	if cfg.protected {
		cap, err := mintCap()
		if err != nil {
			return codec.Ref{}, fmt.Errorf("core: mint capability: %w", err)
		}
		srv.cap = cap
	}
	id := rt.ktx.Register(srv.rpcServer())
	target := wire.ObjAddr{Addr: rt.Addr(), Object: id}

	ref := codec.Ref{Target: target, Type: typeName, Cap: srv.cap}
	if f, err := rt.factoryFor(typeName); err == nil {
		wrapped, hint, err := f.Export(rt, svc, ref)
		if err != nil {
			rt.ktx.Unregister(id)
			return codec.Ref{}, fmt.Errorf("core: export %q: %w", typeName, err)
		}
		if wrapped != nil {
			srv.setService(wrapped)
		}
		ref.Hint = hint
	}

	rec := &exportRecord{ref: ref, svc: svc, server: srv}
	rt.mu.Lock()
	if comparable {
		// Export race: keep the first registration.
		if prior, ok := rt.bySvc[key]; ok {
			rt.mu.Unlock()
			rt.ktx.Unregister(id)
			return prior.ref, nil
		}
		rt.bySvc[key] = rec
	}
	rt.exports[id] = rec
	rt.mu.Unlock()
	return ref, nil
}

// ExportVia registers f as the factory for typeName and exports svc
// through it, in one step. It is the deployment-side idiom for standing
// up a service with a non-default strategy:
//
//	ref, err := rt.ExportVia(cacheFactory, kv, "KV")
//
// instead of the two-call RegisterProxyType + Export dance. Importing
// runtimes still need the factory registered locally (Go cannot ship
// proxy code at runtime — see RegisterProxyType).
func (rt *Runtime) ExportVia(f ProxyFactory, svc Service, typeName string, opts ...ExportOption) (codec.Ref, error) {
	if f == nil {
		return codec.Ref{}, fmt.Errorf("core: ExportVia %q: nil factory", typeName)
	}
	rt.RegisterProxyType(typeName, f)
	return rt.Export(svc, typeName, opts...)
}

// Unexport withdraws a service. In-flight invocations complete; new ones
// get "no such object" errors.
func (rt *Runtime) Unexport(svc Service) error {
	key, comparable := svcKey(svc)
	if !comparable {
		return fmt.Errorf("%w: non-comparable service, use UnexportRef", ErrNotExported)
	}
	rt.mu.Lock()
	rec, ok := rt.bySvc[key]
	if ok {
		delete(rt.bySvc, key)
		delete(rt.exports, rec.ref.Target.Object)
	}
	rt.mu.Unlock()
	if !ok {
		return ErrNotExported
	}
	rt.ktx.Unregister(rec.ref.Target.Object)
	return nil
}

// DetachExport removes svc from the export tables but leaves its kernel
// object registered: the migration machinery calls this and then installs
// a forwarding tombstone at the old object id (via kernel Replace), so
// stale references keep resolving.
func (rt *Runtime) DetachExport(svc Service) (codec.Ref, bool) {
	key, comparable := svcKey(svc)
	if !comparable {
		return codec.Ref{}, false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rec, ok := rt.bySvc[key]
	if !ok {
		return codec.Ref{}, false
	}
	delete(rt.bySvc, key)
	delete(rt.exports, rec.ref.Target.Object)
	return rec.ref, true
}

// UnexportRef withdraws an export by its reference (the only way to
// withdraw func-shaped services, which have no usable identity).
func (rt *Runtime) UnexportRef(ref codec.Ref) error {
	if ref.Target.Addr != rt.Addr() {
		return ErrNotExported
	}
	rt.mu.Lock()
	rec, ok := rt.exports[ref.Target.Object]
	if ok {
		delete(rt.exports, ref.Target.Object)
		if key, comparable := svcKey(rec.svc); comparable {
			delete(rt.bySvc, key)
		}
	}
	rt.mu.Unlock()
	if !ok {
		return ErrNotExported
	}
	rt.ktx.Unregister(ref.Target.Object)
	return nil
}

// RefFor returns the exported reference for a local service, if any.
func (rt *Runtime) RefFor(svc Service) (codec.Ref, bool) {
	key, comparable := svcKey(svc)
	if !comparable {
		return codec.Ref{}, false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rec, ok := rt.bySvc[key]
	if !ok {
		return codec.Ref{}, false
	}
	return rec.ref, true
}

// LocalService resolves a reference that targets this runtime's own
// context back to the exported service instance.
func (rt *Runtime) LocalService(ref codec.Ref) (Service, bool) {
	if ref.Target.Addr != rt.Addr() {
		return nil, false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rec, ok := rt.exports[ref.Target.Object]
	if !ok {
		return nil, false
	}
	return rec.svc, true
}

// dispatchService resolves a local reference to the service *as served* —
// including any coordination wrapper its factory installed at export time
// (cache coordinator, replica primary). Bypass proxies dispatch through
// this, so a co-located client's writes still trigger invalidations and
// replication exactly like a remote client's would. LocalService, by
// contrast, returns the unwrapped object (migration and tests need its
// identity).
func (rt *Runtime) dispatchService(ref codec.Ref) (Service, bool) {
	if ref.Target.Addr != rt.Addr() {
		return nil, false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rec, ok := rt.exports[ref.Target.Object]
	if !ok {
		return nil, false
	}
	return rec.server.service(), true
}

// Import installs (or reuses) a proxy for ref in this context. References
// to objects in this very context short-circuit to a bypass proxy — no
// marshalling, no network. Everything else goes through the type's
// factory, so the service's chosen strategy governs how the client reaches
// it. Imported proxies are cached per target object.
func (rt *Runtime) Import(ref codec.Ref) (Proxy, error) {
	if _, ok := rt.LocalService(ref); ok {
		return newBypassProxy(rt, ref), nil
	}
	rt.mu.Lock()
	if p, ok := rt.proxies[ref.Target]; ok {
		rt.mu.Unlock()
		return p, nil
	}
	rt.mu.Unlock()

	f, err := rt.factoryFor(ref.Type)
	if err != nil {
		return nil, err
	}
	p, err := f.New(rt, ref)
	if err != nil {
		return nil, fmt.Errorf("core: import %s: %w", ref, err)
	}
	rt.mu.Lock()
	if prior, ok := rt.proxies[ref.Target]; ok {
		rt.mu.Unlock()
		_ = p.Close() // lost an import race; keep the first proxy
		return prior, nil
	}
	rt.proxies[ref.Target] = p
	rt.mu.Unlock()
	return p, nil
}

// ForgetProxy removes a proxy from the import cache (proxies call this
// from Close, and the migration machinery calls it when rebinding).
func (rt *Runtime) ForgetProxy(target wire.ObjAddr) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.proxies, target)
}

// ProxyCount reports how many proxies are installed (tests/metrics).
func (rt *Runtime) ProxyCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.proxies)
}

// CloseProxies closes and forgets every proxy in the import cache — the
// runtime's shutdown path. Proxy kinds with background work (a replica's
// repair loop, a cache's lease renewals) stop it on Close, so a node
// shutting down calls this before closing its kernel context; otherwise
// those loops outlive the context they serve.
func (rt *Runtime) CloseProxies() {
	rt.mu.Lock()
	ps := make([]Proxy, 0, len(rt.proxies))
	for _, p := range rt.proxies {
		ps = append(ps, p)
	}
	rt.proxies = make(map[wire.ObjAddr]Proxy)
	rt.mu.Unlock()
	for _, p := range ps {
		_ = p.Close()
	}
}

// Decoder builds a codec decoder that installs proxies for every Ref
// crossing into this context — the executable form of the paper's
// reference-export figure. Proxy implementations outside this package use
// it to decode their private protocols' payloads.
func (rt *Runtime) Decoder() *codec.Decoder { return rt.decoder() }

// LowerArgs converts proxies and exportable services in an outbound value
// vector to wire references, for proxy implementations that marshal their
// own private payloads.
func (rt *Runtime) LowerArgs(vals []any) ([]any, error) { return rt.encodeOutbound(vals) }

// decoder returns the runtime's shared ref-installing decoder (built
// once in NewRuntime — the executable form of the paper's
// reference-export figure).
func (rt *Runtime) decoder() *codec.Decoder { return rt.dec }

// encodeOutbound lowers proxies and exportable services in an argument or
// result vector to wire Refs. It does not mutate the input; when nothing
// in the vector needs lowering — the common case for plain-data calls —
// it returns the input slice unchanged, allocating nothing.
func (rt *Runtime) encodeOutbound(vals []any) ([]any, error) {
	if len(vals) == 0 {
		return vals, nil
	}
	plain := true
	for _, v := range vals {
		if needsLowering(v) {
			plain = false
			break
		}
	}
	if plain {
		return vals, nil
	}
	out := make([]any, len(vals))
	for i, v := range vals {
		lv, err := rt.lowerValue(v, 0)
		if err != nil {
			return nil, fmt.Errorf("core: outbound value %d: %w", i, err)
		}
		out[i] = lv
	}
	return out, nil
}

// needsLowering reports whether lowerValue could transform v (directly
// or inside a container). The shapes lowerValue passes through untouched
// are exactly the ones this returns false for.
func needsLowering(v any) bool {
	switch v.(type) {
	case Proxy, Exportable, Service, []any, map[string]any:
		return true
	default:
		return false
	}
}

func (rt *Runtime) lowerValue(v any, depth int) (any, error) {
	if depth > codec.MaxDepth {
		return nil, codec.ErrTooDeep
	}
	switch x := v.(type) {
	case Proxy:
		return x.Ref(), nil
	case Exportable:
		ref, err := rt.Export(x, x.ProxyType())
		if err != nil {
			return nil, err
		}
		return ref, nil
	case Service:
		// A bare service without a declared proxy type: if previously
		// exported we can still reference it, otherwise refuse.
		if ref, ok := rt.RefFor(x); ok {
			return ref, nil
		}
		return nil, fmt.Errorf("%w (pass a Proxy, a Ref, or implement Exportable)", ErrNotExported)
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			le, err := rt.lowerValue(e, depth+1)
			if err != nil {
				return nil, err
			}
			out[i] = le
		}
		return out, nil
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			le, err := rt.lowerValue(e, depth+1)
			if err != nil {
				return nil, err
			}
			out[k] = le
		}
		return out, nil
	default:
		return v, nil
	}
}

// svcKey gives a map key identifying a service instance. Services are
// usually pointer-shaped and comparable; func-shaped services
// (ServiceFunc) are not, so they opt out of identity dedup — each Export
// creates a fresh registration and Unexport must go through UnexportRef.
func svcKey(svc Service) (any, bool) {
	t := reflect.TypeOf(svc)
	if t != nil && t.Comparable() {
		return svc, true
	}
	return nil, false
}
