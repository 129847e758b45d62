// Package obs is the unified observability layer: one metrics registry
// (named counters/gauges/histograms, atomic on the hot path) and one
// causal tracer (trace/span ids propagated through request payloads)
// shared by every layer of the proxy runtime.
//
// The proxy is the natural interposition point for both: every
// cross-context invocation already funnels through a stub or smart proxy,
// so instrumenting the proxy layer observes the whole system without
// touching services. A trace id minted at the outermost stub rides the
// request frame's envelope across contexts; each hop — stub invocation,
// rpc transmission attempt, server dispatch, cache miss, replica
// broadcast, migration forward — records a span naming its parent, and
// the resulting spans from any subset of contexts merge into one tree.
//
// The package sits below internal/core (which imports it); its exported
// Service mirrors core's Service interface structurally so a daemon can
// export its observer without an import cycle.
package obs

// Observer bundles the two halves. Layers share one Observer per runtime
// (or one per cluster in tests, so spans from all contexts land in one
// ring).
type Observer struct {
	Registry *Registry
	Tracer   *Tracer
}

// NewObserver builds an observer with an empty registry and a
// default-capacity tracer.
func NewObserver() *Observer {
	return &Observer{Registry: NewRegistry(), Tracer: NewTracer(0)}
}
