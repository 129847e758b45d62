// Package repro is a from-scratch Go reproduction of Marc Shapiro's
// "Structure and Encapsulation in Distributed Systems: The Proxy
// Principle" (6th ICDCS, 1986) — the paper that introduced the proxy as
// the structuring unit of distributed systems and originated the RPC
// stub/proxy pattern.
//
// The implementation lives under internal/: the kernel substrate
// (wire, codec, netsim, kernel, rpc, naming, group, and vclock's Lamport
// clock), the proxy runtime itself (core), the smart proxies (cache,
// replica, migrate, shard), the comparators (rpc stubs, dsm), and the
// observability layer (obs: cross-context invocation tracing plus the
// shared metrics registry).
// See README.md for the tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the measured reproduction of every claim. The
// benchmarks in this directory (bench_test.go) expose one testing.B
// target per experiment.
//
// # Constructor options
//
// Every constructor with optional knobs follows the same functional
// options convention: the constructor takes a variadic trailing
// parameter of a package-local option type, and each knob is a With*
// function returning that type. For example:
//
//	rpc.NewClient(ktx, rpc.WithMaxAttempts(8), rpc.WithObserver(o))
//	core.NewRuntime(ktx, core.WithObserver(o))
//	cache.NewFactory(reads, cache.WithLeaseTTL(ttl))
//	pubsub.NewTopic("news", pubsub.WithQueueDepth(64))
//	shard.NewFactory(spec, shard.WithVirtualNodes(64))
//
// Option types are named after what they configure: rpc.ClientOption,
// core.RuntimeOption, naming.ClientOption, core.ExportOption,
// pubsub.TopicOption; the proxy factories take cache.FactoryOption,
// replica.FactoryOption, migrate.FactoryOption and shard.FactoryOption,
// with migrate.HostOption for the migration host and replica.ServiceOption
// / shard.ServiceOption for the proxyctl-facing admin services. Zero
// options always yields a working default; options are applied in order,
// later options winning. New knobs are added as new With* functions, so
// call sites never break.
//
// Proxy factories themselves share one contract, core.ProxyFactory:
// New builds the client-side proxy from an imported reference, Export
// wraps (or registers) the service side and contributes the reference
// hint. Runtime.ExportVia(factory, svc, typeName) registers and exports
// in one step. Factories with no server-side behavior embed
// core.NopExport.
//
// # Observability
//
// internal/obs provides the single metrics registry (obs.Registry:
// lock-free counters, gauges and latency histograms under dotted names)
// and causal tracing across contexts (obs.Tracer: span contexts ride an
// optional header on request payloads, so one client invocation through
// any chain of smart-proxy hops reconstructs as a single trace tree).
// Wire runtimes that should share a view with core.WithObserver; inspect
// with proxyctl stats / proxyctl traces, or proxyd's -http endpoints
// /metrics and /traces.
package repro
