// Proxyctl is the CLI client for a proxyd deployment: it bootstraps from a
// directory node's well-known reference, resolves names, and invokes
// methods through ordinary stub proxies.
//
// Usage:
//
//	proxyctl -node 99 -listen :0 -peers 1=host:7001 -dir 1 <command>
//
// Commands:
//
//	list [prefix]                 list bound names
//	lookup <name>                 resolve a name to a reference
//	bind <name> <ref>             bind name to "node.ctx/obj:Type"
//	unbind <name>                 remove a binding
//	invoke <name> <method> [args] resolve and invoke; integer-looking args
//	                              are passed as int64, the rest as strings
//	stats                         dump the daemon's metrics registry
//	traces                        list the daemon's recent traces
//	trace <id>                    render one trace tree (hex id from traces)
//	health                        print the daemon's failure-detector view
//	                              of its peers (alive/degraded/suspect/
//	                              dead, with RTT, gray-failure score, and
//	                              degradation direction)
//	overload                      print the daemon's admission-controller
//	                              status: learned limit, inflight, queue
//	                              depth, shed counters
//	group                         print the daemon's replica groups:
//	                              role, epoch, primary, and per-member
//	                              applied sequence numbers
//	sessions                      print the daemon's exactly-once dedup
//	                              table: live sessions, cached replies,
//	                              replay/expired/eviction counters
//	shard status                  print the daemon's sharded deployments:
//	                              table epoch, members, keys per shard
//	shard add <shard> <member> <ref>
//	                              admit an exported member to a sharded
//	                              deployment and rebalance onto it
//	shard remove <shard> <member> [force]
//	                              retire a member, draining its key
//	                              ranges ("force" accepts data loss when
//	                              the member is unreachable)
//
// With -trace, invoke runs under a fresh trace and prints the resulting
// tree, merging this client's spans with the spans the daemon recorded —
// the causal chain of one cross-context invocation, reassembled.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/naming"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	nodeID := flag.Uint("node", 99, "this client's node id")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address (for replies)")
	peersFlag := flag.String("peers", "", "peer table: id=host:port,...")
	dirNode := flag.Uint("dir", 1, "node id hosting the root directory")
	timeout := flag.Duration("timeout", 5*time.Second, "per-operation timeout")
	traceInvoke := flag.Bool("trace", false, "trace the invoke command and print the merged trace tree")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}
	ep, err := netsim.ListenTCP(wire.NodeID(*nodeID), *listen, peers)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// Advertise train capability so daemons may coalesce replies to this
	// client; a one-shot CLI generates no fan-in of its own, so the
	// wrapper's send side stays in its inline mode throughout.
	node := kernel.NewNode(netsim.Coalesce(ep, wire.CoalescerConfig{}))
	defer node.Close()
	ktx, err := node.NewContext()
	if err != nil {
		log.Fatal(err)
	}
	observer := obs.NewObserver()
	rt := core.NewRuntime(ktx, core.WithObserver(observer))
	// Deployments that export their KV through the caching factory (proxyd
	// -cached-kv) hand out references of type "CachedKV"; registering the
	// factory here lets this client cache reads locally. Unknown types
	// still fall back to plain stubs.
	rt.RegisterProxyType("CachedKV", cache.NewFactory(nil))
	// Sharded deployments (proxyd -sharded-kv) hand out "ShardedKV" refs;
	// with the factory registered this client routes each key straight to
	// its owning shard (the keyspace spec travels in the reference hint,
	// so a zero-spec factory suffices).
	rt.RegisterProxyType("ShardedKV", shard.NewFactory(shard.Spec{}))

	dirRef := codec.Ref{
		Target: wire.ObjAddr{
			Addr:   wire.Addr{Node: wire.NodeID(*dirNode), Context: 1},
			Object: naming.WellKnownObject,
		},
		Type: naming.TypeName,
	}
	dirProxy, err := rt.Import(dirRef)
	if err != nil {
		log.Fatalf("import directory: %v", err)
	}
	client := naming.NewClient(dirProxy)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd := args[0]; cmd {
	case "list":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		names, err := client.List(ctx, prefix)
		if err != nil {
			log.Fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "lookup":
		requireArgs(args, 2, "lookup <name>")
		ref, err := client.Lookup(ctx, args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s/%d:%s\n", ref.Target.Addr, ref.Target.Object, ref.Type)
	case "bind":
		requireArgs(args, 3, "bind <name> <node.ctx/obj:Type>")
		ref, err := parseRef(args[2])
		if err != nil {
			log.Fatal(err)
		}
		if err := client.Bind(ctx, args[1], ref, 0); err != nil {
			log.Fatal(err)
		}
	case "unbind":
		requireArgs(args, 2, "unbind <name>")
		if err := client.Unbind(ctx, args[1]); err != nil {
			log.Fatal(err)
		}
	case "invoke":
		requireArgs(args, 3, "invoke <name> <method> [args...]")
		p, err := client.Resolve(ctx, rt, args[1])
		if err != nil {
			log.Fatal(err)
		}
		ictx := ctx
		var root obs.SpanContext
		if *traceInvoke {
			// Mint the root span here so the whole invocation (including
			// the stub's own span) parents under one known trace id.
			var finishRoot func(error)
			ictx, finishRoot = observer.Tracer.StartSpan(ctx, "proxyctl:"+args[2], "proxyctl")
			root, _ = obs.SpanFromContext(ictx)
			defer finishRoot(nil)
		}
		results, err := p.Invoke(ictx, args[2], parseArgs(args[3:])...)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			fmt.Printf("%v\n", r)
		}
		if *traceInvoke {
			printMergedTrace(ctx, rt, client, observer, root)
		}
	case "health", "overload", "group", "sessions":
		sv := statusVerbs[cmd]
		p, err := client.Resolve(ctx, rt, sv.name)
		if err != nil {
			log.Fatalf("resolve %s (daemon too old?): %v", sv.name, err)
		}
		text, err := core.Call1[string](ctx, p, sv.method)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
	case "shard":
		requireArgs(args, 2, "shard status | shard add <shard> <member> <ref> | shard remove <shard> <member> [force]")
		p, err := client.Resolve(ctx, rt, "services/shard")
		if err != nil {
			log.Fatalf("resolve services/shard (daemon too old?): %v", err)
		}
		switch sub := args[1]; sub {
		case "status":
			text, err := core.Call1[string](ctx, p, "status")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(text)
		case "add":
			requireArgs(args, 5, "shard add <shard> <member> <node.ctx/obj:Type>")
			ref, err := parseRef(args[4])
			if err != nil {
				log.Fatal(err)
			}
			text, err := core.Call1[string](ctx, p, "add", args[2], args[3], ref)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(text)
		case "remove":
			requireArgs(args, 4, "shard remove <shard> <member> [force]")
			callArgs := []any{args[2], args[3]}
			if len(args) > 4 && args[4] == "force" {
				callArgs = append(callArgs, true)
			}
			text, err := core.Call1[string](ctx, p, "remove", callArgs...)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(text)
		default:
			log.Fatalf("unknown shard subcommand %q", sub)
		}
	case "stats":
		text, err := obsCall[string](ctx, rt, client, "metrics")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
	case "traces":
		text, err := obsCall[string](ctx, rt, client, "traces")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
	case "trace":
		requireArgs(args, 2, "trace <id>")
		raw, err := obsCall[[]byte](ctx, rt, client, "trace", args[1])
		if err != nil {
			log.Fatal(err)
		}
		spans, err := obs.DecodeSpans(raw)
		if err != nil {
			log.Fatal(err)
		}
		obs.FormatTrace(os.Stdout, spans)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

// statusVerbs maps the plain status commands onto the daemon service each
// renders: the directory name the service is bound at, and the method
// returning its formatted status text. The verbs share one code path in
// main; keeping the mapping as data keeps it testable without a cluster.
var statusVerbs = map[string]struct{ name, method string }{
	"health":   {name: "services/health", method: "nodes"},
	"overload": {name: "services/overload", method: "status"},
	"group":    {name: "services/replica", method: "groups"},
	"sessions": {name: "services/session", method: "sessions"},
}

// obsCall resolves the daemon's observability service from the directory
// and invokes one method on it.
func obsCall[T any](ctx context.Context, rt *core.Runtime, client *naming.Client, method string, args ...any) (T, error) {
	var zero T
	p, err := client.Resolve(ctx, rt, "services/obs")
	if err != nil {
		return zero, fmt.Errorf("resolve services/obs (daemon too old?): %w", err)
	}
	return core.Call1[T](ctx, p, method, args...)
}

// printMergedTrace pulls the daemon's spans for the given trace, merges
// them with the spans this process recorded, and renders the tree. Spans
// recorded by contexts other than the directory daemon (multi-node
// chains) are merged in by whichever daemon their hops crossed — this
// fetches from the bootstrap daemon only.
func printMergedTrace(ctx context.Context, rt *core.Runtime, client *naming.Client, observer *obs.Observer, root obs.SpanContext) {
	spans := observer.Tracer.Spans(root.Trace)
	if raw, err := obsCall[[]byte](ctx, rt, client, "trace", root.Trace.String()); err == nil {
		if remote, err := obs.DecodeSpans(raw); err == nil {
			have := make(map[obs.SpanID]bool, len(spans))
			for _, sp := range spans {
				have[sp.ID] = true
			}
			for _, sp := range remote {
				if !have[sp.ID] {
					spans = append(spans, sp)
				}
			}
		}
	}
	// The root span has not finished yet (it closes when main returns);
	// synthesize it so the tree hangs together.
	spans = append(spans, obs.Span{Trace: root.Trace, ID: root.Span, Name: "proxyctl", Where: "proxyctl"})
	fmt.Fprintf(os.Stderr, "\n")
	obs.FormatTrace(os.Stderr, spans)
}

func requireArgs(args []string, n int, usage string) {
	if len(args) < n {
		log.Fatalf("usage: proxyctl %s", usage)
	}
}

// parseArgs converts CLI strings into invocation arguments: integers
// become int64, everything else stays a string.
func parseArgs(raw []string) []any {
	out := make([]any, len(raw))
	for i, s := range raw {
		out[i] = parseArg(s)
	}
	return out
}

// parseArg converts one CLI string: an integer, a JSON list (the key
// vectors multi-key shard methods take, e.g. '["k",7]'), or a string.
func parseArg(s string) any {
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v
	}
	if strings.HasPrefix(s, "[") {
		var list []any
		if err := json.Unmarshal([]byte(s), &list); err == nil {
			for i, e := range list {
				// JSON numbers decode as float64; invocation payloads
				// want integers where the value is integral.
				if f, ok := e.(float64); ok && f == float64(int64(f)) {
					list[i] = int64(f)
				}
			}
			return list
		}
	}
	return s
}

// parseRef parses "node.ctx/obj:Type".
func parseRef(s string) (codec.Ref, error) {
	addrPart, typ, ok := strings.Cut(s, ":")
	if !ok {
		return codec.Ref{}, fmt.Errorf("ref %q: missing :Type", s)
	}
	loc, objPart, ok := strings.Cut(addrPart, "/")
	if !ok {
		return codec.Ref{}, fmt.Errorf("ref %q: missing /object", s)
	}
	nodePart, ctxPart, ok := strings.Cut(loc, ".")
	if !ok {
		return codec.Ref{}, fmt.Errorf("ref %q: address must be node.ctx", s)
	}
	node, err := strconv.ParseUint(nodePart, 10, 32)
	if err != nil {
		return codec.Ref{}, fmt.Errorf("ref %q: %w", s, err)
	}
	ctxID, err := strconv.ParseUint(ctxPart, 10, 32)
	if err != nil {
		return codec.Ref{}, fmt.Errorf("ref %q: %w", s, err)
	}
	obj, err := strconv.ParseUint(objPart, 10, 64)
	if err != nil {
		return codec.Ref{}, fmt.Errorf("ref %q: %w", s, err)
	}
	return codec.Ref{
		Target: wire.ObjAddr{
			Addr:   wire.Addr{Node: wire.NodeID(node), Context: wire.ContextID(ctxID)},
			Object: wire.ObjectID(obj),
		},
		Type: typ,
	}, nil
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
