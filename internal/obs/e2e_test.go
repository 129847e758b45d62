package obs_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/wire"
)

// buildChain stands up the 3-hop topology used by the propagation tests:
// node 1 exports a replicated KV, node 2 fronts it behind a cached
// service, node 3 is the client. A write from node 3 therefore crosses
// cache proxy -> cache coordinator -> replica proxy -> replica primary ->
// group broadcast, through three distinct contexts.
func buildChain(t *testing.T) (*bench.Cluster, core.Proxy) {
	t.Helper()
	c, err := bench.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	repFactory := replica.NewFactory(bench.KVReads(), func() replica.StateMachine { return bench.NewKV() })
	for i := 0; i < 3; i++ {
		c.RT(i).RegisterProxyType("RepKV", repFactory)
		c.RT(i).RegisterProxyType("FrontKV", cache.NewFactory(bench.KVReads()))
	}

	repRef, err := c.RT(0).Export(bench.NewKV(), "RepKV")
	if err != nil {
		t.Fatal(err)
	}
	repProxy, err := c.RT(1).Import(repRef)
	if err != nil {
		t.Fatal(err)
	}
	front := core.ServiceFunc(func(ctx context.Context, method string, args []any) ([]any, error) {
		return repProxy.Invoke(ctx, method, args...)
	})
	frontRef, err := c.RT(1).Export(front, "FrontKV")
	if err != nil {
		t.Fatal(err)
	}
	cached, err := c.RT(2).Import(frontRef)
	if err != nil {
		t.Fatal(err)
	}
	return c, cached
}

// TestThreeHopTraceTree drives one traced write through the full chain
// and asserts the recorded spans form a single connected tree rooted at
// the client span, with hops in all three contexts.
func TestThreeHopTraceTree(t *testing.T) {
	c, cached := buildChain(t)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tctx, finish := c.Obs.Tracer.StartSpan(ctx, "client:put", "test")
	root, _ := obs.SpanFromContext(tctx)
	if _, err := cached.Invoke(tctx, "put", "k", int64(7)); err != nil {
		t.Fatal(err)
	}
	finish(nil)

	spans := c.Obs.Tracer.Spans(root.Trace)
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	names := make(map[string]obs.Span, len(spans))
	wheres := make(map[string]bool)
	for _, sp := range spans {
		if sp.Trace != root.Trace {
			t.Fatalf("span %+v has foreign trace", sp)
		}
		byID[sp.ID] = sp
		names[sp.Name] = sp
		wheres[sp.Where] = true
	}

	// Every hop the chain crosses must have recorded its span.
	for _, want := range []string{
		"client:put",            // test root
		"cache.write:put",       // caching proxy on node 3
		"cache.serve.write:put", // coordinator on node 2
		"replica.write:put",     // replica proxy (member) on node 2
		"replica.apply:put",     // primary on node 1
	} {
		if _, ok := names[want]; !ok {
			t.Fatalf("missing span %q; have %v", want, keys(names))
		}
	}
	// rpc transmission attempts ride along as spans too.
	foundAttempt := false
	for n := range names {
		if strings.HasPrefix(n, "rpc:attempt#") {
			foundAttempt = true
		}
	}
	if !foundAttempt {
		t.Fatalf("no rpc attempt spans recorded; have %v", keys(names))
	}

	// One connected tree: exactly one root, and every other span's parent
	// chain reaches it within the recorded set.
	roots := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots++
			continue
		}
		cur, hops := sp, 0
		for cur.Parent != 0 {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %q parent %v not recorded — tree disconnected", cur.Name, cur.Parent)
			}
			cur = parent
			if hops++; hops > len(spans) {
				t.Fatal("parent cycle")
			}
		}
		if cur.ID != root.Span {
			t.Fatalf("span %q chains to root %v, want %v", sp.Name, cur.ID, root.Span)
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want 1", roots)
	}

	// Hops ran in three distinct contexts (plus the test's own location).
	for _, where := range []string{"3.1", "2.1", "1.1"} {
		if !wheres[where] {
			t.Fatalf("no span recorded in context %s; wheres=%v", where, wheres)
		}
	}

	// Structure spot-checks: the coordinator's serve span parents under
	// the caching proxy's write span, and the primary's apply span chains
	// below the replica proxy's write span.
	if names["cache.serve.write:put"].Parent != names["cache.write:put"].ID {
		t.Fatal("coordinator span not parented under cache proxy span")
	}
	if names["replica.apply:put"].Parent != names["replica.write:put"].ID {
		t.Fatal("primary span not parented under replica proxy span")
	}

	// The same tree renders without orphan roots.
	var b strings.Builder
	obs.FormatTrace(&b, spans)
	if !strings.Contains(b.String(), "replica.apply:put") {
		t.Fatalf("render missing spans:\n%s", b.String())
	}
}

// TestTracedReadMiss checks the cache-miss read path emits a connected
// miss -> serve chain, while a subsequent hit stays span-free.
func TestTracedReadMiss(t *testing.T) {
	c, cached := buildChain(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	tctx, finish := c.Obs.Tracer.StartSpan(ctx, "client:get", "test")
	root, _ := obs.SpanFromContext(tctx)
	if _, err := cached.Invoke(tctx, "get", "k"); err != nil {
		t.Fatal(err)
	}
	finish(nil)
	spans := c.Obs.Tracer.Spans(root.Trace)
	var miss, serve bool
	for _, sp := range spans {
		if sp.Name == "cache.miss:get" {
			miss = true
		}
		if sp.Name == "cache.serve.read:get" {
			serve = true
		}
	}
	if !miss || !serve {
		t.Fatalf("miss chain incomplete: miss=%v serve=%v in %v", miss, serve, keys(spanNames(spans)))
	}

	// Second read is a hit: no new spans for this trace.
	t2, finish2 := c.Obs.Tracer.StartSpan(ctx, "client:get2", "test")
	root2, _ := obs.SpanFromContext(t2)
	if _, err := cached.Invoke(t2, "get", "k"); err != nil {
		t.Fatal(err)
	}
	finish2(nil)
	for _, sp := range c.Obs.Tracer.Spans(root2.Trace) {
		if sp.Name != "client:get2" {
			t.Fatalf("cache hit recorded span %q; hits must stay uninstrumented", sp.Name)
		}
	}
}

// TestHeaderlessRequestStillDecodes proves wire backward compatibility:
// a pre-trace peer's headerless request payload (plain EncodeRequest,
// sent straight through the rpc client) executes normally.
func TestHeaderlessRequestStillDecodes(t *testing.T) {
	c, err := bench.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref, err := c.RT(0).Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	payload, err := core.EncodeRequest(ref.Cap, "put", []any{"k", int64(41)})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.RT(1).Client().Call(ctx, ref.Target, wire.KindRequest, payload)
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.DecodeResults(c.RT(1).Decoder(), reply)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].(int64) != 41 {
		t.Fatalf("results = %v", results)
	}

	// And the prefix form the benchmark ladder still times (envelope bytes
	// in front of the request) round-trips through its pair of
	// compositions.
	sc := obs.SpanContext{Trace: 9, Span: 3}
	traced, err := core.AppendRequestCtx(nil, obs.ContextWithSpan(context.Background(), sc), ref.Cap, "get", []any{"k"})
	if err != nil {
		t.Fatal(err)
	}
	gotSC, _, _, method, args, err := core.DecodeRequestFull(c.RT(0).Decoder(), traced)
	if err != nil {
		t.Fatal(err)
	}
	if gotSC != sc || method != "get" || len(args) != 1 {
		t.Fatalf("decoded %+v %q %v", gotSC, method, args)
	}
}

func keys(m map[string]obs.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func spanNames(spans []obs.Span) map[string]obs.Span {
	m := make(map[string]obs.Span, len(spans))
	for _, sp := range spans {
		m[sp.Name] = sp
	}
	return m
}
