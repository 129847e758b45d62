// Proxyd hosts a node of the system over real TCP: a kernel context, a
// proxy runtime, and a root name directory exported at the well-known
// object id, so other processes can bootstrap from nothing but this
// node's id and address.
//
// Usage:
//
//	proxyd -node 1 -listen :7001 [-peers 2=host:7002,3=host:7003] [-with-kv]
//
// The root directory of node N is importable as the reference
// "N.1/1:naming.Directory" — which is exactly what cmd/proxyctl
// constructs. With -with-kv the daemon also exports a demo KV service and
// binds it at "services/kv".
//
// Every daemon runs a failure detector over its -peers table: kernel-level
// pings every -health-interval grade each peer alive/suspect/dead, the
// verdicts feed the runtime's circuit breakers, and the detector itself is
// exported as a service bound at "services/health" (inspect it with
// proxyctl health). -health-interval 0 disables active probing; the
// detector then learns passively from invocation outcomes only. The
// detector also scores gray failures — peers that answer but slowly or
// lossily — from EWMA RTT/loss evidence (-gray-outlier, -gray-degrade),
// and disambiguates one-way partitions from death by asking other peers
// to probe a suspect on its behalf (-gray-indirect).
//
// With -replicated-kv the demo KV is exported through the replica smart
// proxy instead: importing peers with the factory registered become group
// members with local reads and self-healing failover. -wal-dir makes the
// primary's write-ahead log file-backed, so a restarted daemon reassumes
// its groups (next epoch, state replayed from the log) instead of losing
// them. Every daemon also exports a replica status service bound at
// "services/replica" (inspect it with proxyctl group).
//
// Outbound frames to the same destination coalesce into train frames
// under fan-in; trains are the one batching mechanism below the kernel.
// The capability is learned per peer from frame flags, so a mixed
// deployment with pre-train daemons degrades to frame-at-a-time toward
// them with no configuration.
//
// With -sharded-kv the demo KV is exported through the sharding smart
// proxy: its keyspace is consistent-hashed across -shard-members local
// member shards, clients with the factory registered route each key
// straight to its owner, and membership grows or shrinks at runtime via
// `proxyctl shard add/remove` (the shard control service is bound at
// "services/shard" on every daemon).
//
// Every daemon keeps one bounded dedup table (-session-max/-session-ttl
// bound it): it answers a retransmitted request from the cached reply
// instead of re-executing it, under the session stamp the request
// carries or, without one, under the caller's own conversation and
// request id; a retransmission older than the table remembers fails
// loudly with session-expired. The table's status service is bound at
// "services/session" (proxyctl sessions). -session-dedup adds the
// client half: the daemon's own outbound non-idempotent calls carry
// session stamps, so peers deduplicate them across failover too.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	nodeID := flag.Uint("node", 1, "this node's id")
	listen := flag.String("listen", ":7001", "TCP listen address")
	peersFlag := flag.String("peers", "", "peer table: id=host:port,id=host:port")
	withKV := flag.Bool("with-kv", false, "export a demo KV service bound at services/kv")
	cachedKV := flag.Bool("cached-kv", false, "export the demo KV through the caching smart proxy (clients with the factory registered cache reads locally)")
	replicatedKV := flag.Bool("replicated-kv", false, "export the demo KV through the replicating smart proxy (importing peers become self-healing group members)")
	shardedKV := flag.Bool("sharded-kv", false, "export the demo KV through the sharding smart proxy: the keyspace is consistent-hashed across member shards")
	shardMembers := flag.Int("shard-members", 2, "initial local member count of the -sharded-kv deployment (grow it with proxyctl shard add)")
	walDir := flag.String("wal-dir", "", "directory for replica write-ahead logs (empty = in-memory; set it and a restarted daemon reassumes its groups)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: state is loaded from it at boot and saved to it at shutdown")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "peer liveness probe interval (0 = passive detection only)")
	grayOutlier := flag.Float64("gray-outlier", 3.0, "gray-failure RTT outlier factor: a peer's EWMA RTT at this multiple of the population median scores 1.0 (<=1 disables RTT scoring)")
	grayDegrade := flag.Float64("gray-degrade", 0.5, "gray-failure score at or above which a peer is graded degraded (with hysteresis at half this value)")
	grayIndirectK := flag.Int("gray-indirect", 2, "peers asked to ping a suspect on this node's behalf, disambiguating one-way partitions from death (0 = off)")
	dispatchLimit := flag.Int("dispatch-limit", kernel.DefaultDispatchLimit, "max concurrent request handlers per node before the kernel pump applies backpressure")
	overloadOn := flag.Bool("overload", false, "adaptive admission control: learned concurrency limit + queue-deadline shedding, status bound at services/overload (proxyctl overload)")
	overloadQueue := flag.Duration("overload-queue", 0, "admission queue deadline — queued requests older than this are shed (0 = overload package default)")
	retryBudget := flag.Float64("retry-budget", 0, "per-destination retry-token ratio for this daemon's outbound calls (0.1 caps retries near 10% of fresh calls; 0 = unlimited retransmission)")
	sessionDedup := flag.Bool("session-dedup", false, "stamp this daemon's own outbound non-idempotent calls with a client session, so peers dedup them across retries and failover (inbound dedup is always on: proxyctl sessions)")
	sessionMax := flag.Int("session-max", 0, "max live client sessions in the dedup table, LRU-evicted beyond it (0 = session package default)")
	sessionTTL := flag.Duration("session-ttl", session.DefaultTTL, "evict client sessions idle longer than this; a retry after eviction fails with session-expired (0 = never)")
	hedgeDelay := flag.Duration("hedge", 0, "hedge idempotent reads: race a second attempt to an alternate binding after this delay floor, adapting up to observed p95 (0 = off)")
	traceFrames := flag.Bool("trace", false, "log every frame sent and received")
	httpAddr := flag.String("http", "", "optional HTTP listen address serving /metrics and /traces text dumps")
	flag.Parse()

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}
	ep, err := netsim.ListenTCP(wire.NodeID(*nodeID), *listen, peers)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// Train coalescing wraps the endpoint below the kernel: outbound
	// same-destination frames pack into container frames under fan-in,
	// and the kernel pump learns which peers can unpack them from the
	// capability bit on their frames. The node owns the wrapper — its
	// Close drains the flushers before the TCP endpoint goes away.
	ce := netsim.Coalesce(ep, wire.CoalescerConfig{})
	observer := obs.NewObserver()
	var nodeOpts []kernel.NodeOption
	if *dispatchLimit != kernel.DefaultDispatchLimit {
		nodeOpts = append(nodeOpts, kernel.WithDispatchLimit(*dispatchLimit))
	}
	var adm *overload.Controller
	if *overloadOn {
		adm = overload.NewController(overload.Config{QueueDeadline: *overloadQueue}, observer.Registry, "")
		nodeOpts = append(nodeOpts, kernel.WithAdmission(adm))
	}
	// The node's dedup table answers retransmissions from cache;
	// core.WithSessions (added to the runtime options below) makes this
	// daemon's own outbound writes mint session headers so peers can dedup
	// them in turn.
	sessTab := session.NewTable(session.Config{MaxSessions: *sessionMax, TTL: *sessionTTL})
	nodeOpts = append(nodeOpts, kernel.WithSessions(sessTab))
	if *traceFrames {
		nodeOpts = append(nodeOpts, kernel.WithTrace(func(dir kernel.TraceDirection, f *wire.Frame) {
			log.Printf("%s %s", dir, f)
		}))
	}
	node := kernel.NewNode(ce, nodeOpts...)
	defer node.Close()
	ktx, err := node.NewContext()
	if err != nil {
		log.Fatalf("context: %v", err)
	}

	// The failure detector watches every configured peer and shares its
	// evidence with the runtime: probe verdicts and invocation outcomes
	// both drive the same per-node state machine.
	monitor := health.NewMonitor(ktx,
		health.WithInterval(*healthInterval),
		health.WithObserver(observer),
		health.WithOutlierFactor(*grayOutlier),
		health.WithDegradeScore(*grayDegrade),
		health.WithIndirectProbes(*grayIndirectK))
	defer monitor.Close()
	for id := range peers {
		monitor.Watch(id)
	}

	rtOpts := []core.RuntimeOption{core.WithObserver(observer), core.WithHealth(monitor)}
	if *sessionDedup {
		rtOpts = append(rtOpts, core.WithSessions())
	}
	if *retryBudget > 0 {
		rtOpts = append(rtOpts, core.WithClient(rpc.NewClient(ktx,
			rpc.WithObserver(observer), rpc.WithRetryBudget(*retryBudget, 0))))
	}
	if *hedgeDelay > 0 {
		rtOpts = append(rtOpts, core.WithHedging(core.HedgeConfig{MinDelay: *hedgeDelay}))
	}
	rt := core.NewRuntime(ktx, rtOpts...)
	// Fast-path health gauges: pool hit rates and allocs/op show up in
	// `proxyctl stats` next to the service counters.
	obs.RegisterFastPathMetrics(observer.Registry, rt.InvokeCount)
	// Train gauges: fill, inline/staged split, and the unpack counters.
	obs.RegisterTrainMetrics(observer.Registry, ce.Coalescer())
	// Inbound frames dropped because the receive queue was full (the pump
	// blocked on the dispatch limit for longer than 1024 frames): senders
	// see these only as timeouts, so a non-zero value explains them.
	observer.Registry.GaugeFunc("netsim.recv.overruns", func() string {
		return strconv.FormatUint(ep.RecvOverruns(), 10)
	})
	// Socket reads a polling reader satisfied without sleeping, against
	// those that slept in the netpoller: polled ≈ 0 under steady load
	// means the peers' writes are paying for wake-ups again.
	observer.Registry.GaugeFunc("netsim.recv.polled", func() string {
		return strconv.FormatUint(ep.RecvPolled(), 10)
	})
	observer.Registry.GaugeFunc("netsim.recv.parked", func() string {
		return strconv.FormatUint(ep.RecvParked(), 10)
	})

	// The directory must land at the well-known object id, so it is the
	// first export in this context.
	dir := naming.NewDirectory()
	dirRef, err := rt.Export(dir, naming.TypeName)
	if err != nil {
		log.Fatalf("export directory: %v", err)
	}
	if dirRef.Target.Object != naming.WellKnownObject {
		log.Fatalf("directory landed at object %d, want %d", dirRef.Target.Object, naming.WellKnownObject)
	}
	log.Printf("node %d listening on %s; root directory at %s", *nodeID, ep.ListenAddr(), dirRef)

	// Every daemon exposes its observer: metrics and trace trees are
	// retrievable over the ordinary invocation path (proxyctl stats/trace)
	// from any context that can reach the directory.
	obsRef, err := rt.Export(obs.NewService(observer), obs.TypeName)
	if err != nil {
		log.Fatalf("export obs: %v", err)
	}
	dir.Bind("services/obs", obsRef, 0)

	// The failure detector too: any peer can ask this node who it thinks
	// is alive (proxyctl health).
	healthRef, err := rt.Export(health.NewService(monitor), health.TypeName)
	if err != nil {
		log.Fatalf("export health: %v", err)
	}
	dir.Bind("services/health", healthRef, 0)

	// And the replica-group status view: membership, primary, epoch, and
	// per-member applied sequence for every group this node hosts or has
	// joined (proxyctl group).
	replicaRef, err := rt.Export(replica.NewService(rt), replica.TypeName)
	if err != nil {
		log.Fatalf("export replica status: %v", err)
	}
	dir.Bind("services/replica", replicaRef, 0)

	// Likewise the shard control view: routing tables, epochs, and
	// membership operations for every sharded deployment this node routes
	// (proxyctl shard status/add/remove).
	shardRef, err := rt.Export(shard.NewService(rt), shard.TypeName)
	if err != nil {
		log.Fatalf("export shard status: %v", err)
	}
	dir.Bind("services/shard", shardRef, 0)

	// And the admission-controller view: limit, inflight, queue depth and
	// shed counters (proxyctl overload). Exported even with -overload off,
	// so the verb reports "disabled" instead of failing to resolve.
	overloadRef, err := rt.Export(overload.NewService(adm), overload.TypeName)
	if err != nil {
		log.Fatalf("export overload status: %v", err)
	}
	dir.Bind("services/overload", overloadRef, 0)

	// And the dedup table's view: live sessions, cached replies, replay,
	// expiry and eviction counters (proxyctl sessions).
	sessionRef, err := rt.Export(session.NewService(sessTab), session.TypeName)
	if err != nil {
		log.Fatalf("export session status: %v", err)
	}
	dir.Bind("services/session", sessionRef, 0)
	registerSessionMetrics(observer.Registry, sessTab, *sessionDedup)

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			observer.Registry.Dump(w)
		})
		mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if id := r.URL.Query().Get("id"); id != "" {
				tid, err := obs.ParseTraceID(id)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				obs.FormatTrace(w, observer.Tracer.Spans(tid))
				return
			}
			for _, ts := range observer.Tracer.Recent(50) {
				fmt.Fprintf(w, "%s %3d spans  %s\n", ts.Trace, ts.Spans, ts.Root)
			}
		})
		go func() {
			log.Printf("observability HTTP on %s (/metrics, /traces, /traces?id=<trace>)", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				log.Printf("http: %v", err)
			}
		}()
	}

	var kv *bench.KV
	if *withKV || *cachedKV || *replicatedKV {
		kv = bench.NewKV()
		var kvRef codec.Ref
		switch {
		case *cachedKV:
			// The service chooses its distribution strategy: reads served
			// from client-side caches kept coherent by callback
			// invalidation. Clients that never register the factory fall
			// back to plain stubs and still interoperate.
			kvRef, err = rt.ExportVia(cache.NewFactory(bench.KVReads()), kv, "CachedKV")
		case *replicatedKV:
			// Or full replication: importers join a totally-ordered group,
			// every acknowledged write is logged before the ack, and the
			// group heals itself around crashes. Plain-stub clients still
			// interoperate (their invokes run on the primary).
			kvRef, err = rt.ExportVia(replica.NewFactory(bench.KVReads(),
				func() replica.StateMachine { return bench.NewKV() },
				replica.WithName("kv"),
				replica.WithWALStore(walStoreFor(*walDir))), kv, "ReplicatedKV")
		default:
			kvRef, err = rt.Export(kv, "KV")
		}
		if err != nil {
			log.Fatalf("export kv: %v", err)
		}
		dir.Bind("services/kv", kvRef, 0)
		log.Printf("demo KV exported as %s, bound at services/kv", kvRef)
	}

	// Or partitioning: the keyspace is consistent-hashed across member
	// shards, each an ordinary export the router hands off key ranges to.
	// The initial members live in this daemon; grow the deployment with
	// `proxyctl shard add kv <member> <ref>` pointing at guards exported
	// on other nodes.
	if *shardedKV {
		spec := bench.KVShardSpec()
		sf := shard.NewFactory(spec, shard.WithName("kv"))
		router := shard.NewRouter(rt, sf)
		ctx := context.Background()
		for i := 0; i < *shardMembers; i++ {
			name := fmt.Sprintf("local%d", i)
			memberRef, err := rt.Export(shard.NewGuard(name, spec, bench.NewKV()), "KVShard")
			if err != nil {
				log.Fatalf("export shard member %s: %v", name, err)
			}
			if err := router.AddMember(ctx, name, memberRef); err != nil {
				log.Fatalf("admit shard member %s: %v", name, err)
			}
		}
		kvRef, err := rt.ExportVia(sf, router, "ShardedKV")
		if err != nil {
			log.Fatalf("export sharded kv: %v", err)
		}
		dir.Bind("services/kv", kvRef, 0)
		log.Printf("sharded KV exported as %s (%d members), bound at services/kv", kvRef, *shardMembers)
	}

	// A replicated KV's durable state is its write-ahead log; only the
	// other flavors ride the checkpoint file.
	ckKV := kv
	if *replicatedKV {
		ckKV = nil
	}
	if *checkpoint != "" {
		if err := loadCheckpoint(*checkpoint, dir, ckKV); err != nil {
			log.Fatalf("load checkpoint: %v", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	if *checkpoint != "" {
		if err := saveCheckpoint(*checkpoint, dir, ckKV); err != nil {
			log.Printf("save checkpoint: %v", err)
		} else {
			log.Printf("checkpoint saved to %s", *checkpoint)
		}
	}
	log.Printf("shutting down")
}

// loadCheckpoint restores the directory (and KV, when exported) from a
// prior incarnation's state. A missing file is a clean first boot.
func loadCheckpoint(path string, dir *naming.Directory, kv *bench.KV) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	ck, err := persist.ReadCheckpoint(f)
	if err != nil {
		return err
	}
	if err := ck.RestoreInto("directory", dir); err != nil && !errors.Is(err, persist.ErrUnknownEntry) {
		return err
	}
	if kv != nil {
		if err := ck.RestoreInto("services/kv", kv); err != nil && !errors.Is(err, persist.ErrUnknownEntry) {
			return err
		}
	}
	log.Printf("restored checkpoint %s (%v)", path, ck.Names())
	return nil
}

// saveCheckpoint writes the node's durable state atomically (write to a
// temp file, then rename).
func saveCheckpoint(path string, dir *naming.Directory, kv *bench.KV) error {
	ck := persist.NewCheckpoint()
	if err := ck.Add("directory", dir); err != nil {
		return err
	}
	if kv != nil {
		if err := ck.Add("services/kv", kv); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := ck.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// registerSessionMetrics surfaces the dedup table's occupancy and
// counters as computed gauges: the table already owns the numbers, the
// registry reads them at snapshot time (proxyctl stats, /metrics).
// session.replies alone stays behind -session-dedup (stamping):
// benchmark/bench_test.go predicts that a daemon started without the
// flag reports none, and that prediction can only move in a
// benchmark-only change. proxyctl sessions shows the count regardless.
func registerSessionMetrics(r *obs.Registry, tab *session.Table, stamping bool) {
	stat := func(f func(session.Stats) string) obs.GaugeFunc {
		return func() string { return f(tab.Stats()) }
	}
	r.GaugeFunc("session.sessions", stat(func(s session.Stats) string { return strconv.Itoa(s.Sessions) }))
	if stamping {
		r.GaugeFunc("session.replies", stat(func(s session.Stats) string { return strconv.Itoa(s.Replies) }))
	}
	r.GaugeFunc("session.tombstones", stat(func(s session.Stats) string { return strconv.Itoa(s.Tombstones) }))
	r.GaugeFunc("session.hits", stat(func(s session.Stats) string { return strconv.FormatUint(s.Hits, 10) }))
	r.GaugeFunc("session.expired", stat(func(s session.Stats) string { return strconv.FormatUint(s.Expired, 10) }))
	r.GaugeFunc("session.evictions", stat(func(s session.Stats) string { return strconv.FormatUint(s.Evictions, 10) }))
}

func parsePeers(s string) (map[wire.NodeID]string, error) {
	peers := make(map[wire.NodeID]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not id=addr", part)
		}
		n, err := strconv.ParseUint(id, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("entry %q: %w", part, err)
		}
		peers[wire.NodeID(n)] = addr
	}
	return peers, nil
}

// walStoreFor resolves the durability substrate for replica write-ahead
// logs: file-backed under dir when set (a restarted daemon finds its log
// and reassumes the group), in-memory otherwise.
func walStoreFor(dir string) func(wire.Addr) persist.LogStore {
	return func(addr wire.Addr) persist.LogStore {
		if dir == "" {
			return persist.NewMemStore(nil)
		}
		path := filepath.Join(dir, fmt.Sprintf("wal-%d.%d.log", addr.Node, addr.Context))
		s, err := persist.OpenFileStore(path)
		if err != nil {
			// A primary that cannot log durably must not ack writes.
			log.Fatalf("open wal store %s: %v", path, err)
		}
		return s
	}
}
