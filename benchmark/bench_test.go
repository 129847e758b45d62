package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0, 10}, {10, 10}, {50, 50}, {90, 90}, {99, 100}, {100, 100}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedianAndIQR(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqr(ten); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr(1..10) = %v, want 5.5 (Python's exclusive quartiles)", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := iqr([]float64{1, 2, 4, 8, 16}); math.Abs(got-10.5) > 1e-12 {
		t.Errorf("iqr = %v, want 10.5", got)
	}
	if got := iqr([]float64{3}); got != 0 {
		t.Errorf("iqr of one value = %v, want 0", got)
	}
}

func TestBestTakesTheGoodDecile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if got := best("x", "u", vals, true).Value; got != 18 {
		t.Errorf("higher-is-better decile of 1..20 = %v, want 18", got)
	}
	if got := best("x", "u", vals, false).Value; got != 2 {
		t.Errorf("lower-is-better decile of 1..20 = %v, want 2", got)
	}
}

func TestParseMetrics(t *testing.T) {
	dump := `counter overload.admitted 4211
counter rpc.client[1.1].retransmits 0
gauge   overload.limit 64
gauge   wire.pool.frame_hit_rate 0.998
gauge   wire.trains.avg_fill 5.31
gauge   odd.gauge not-a-number
hist    overload.latency count=4211 mean=21µs p50=18µs p95=40µs p99=77µs max=1ms
short line
`
	m := parseMetrics(strings.NewReader(dump))
	want := map[string]float64{
		"overload.admitted": 4211, "rpc.client[1.1].retransmits": 0, "overload.limit": 64,
		"wire.pool.frame_hit_rate": 0.998, "wire.trains.avg_fill": 5.31, "overload.latency": 4211,
	}
	if len(m) != len(want) {
		t.Errorf("parsed %d metrics %v, want %d", len(m), m, len(want))
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// The nine spans must add up to the invocation however the ten stamps
// fall, including the two orderings loopback really produces: the server
// sees the request before the client's Send returns, and the server's
// Send returns after the caller has its reply.
func TestSpansPartitionTheInvocation(t *testing.T) {
	var tl timeline
	tl.t = [numStamps]int64{100, 110, 150, 140, 160, 170, 175, 260, 200, 230}
	d, ok := tl.spans()
	if !ok {
		t.Fatal("complete timeline reported incomplete")
	}
	var sum int64
	for i, v := range d {
		if v < 0 {
			t.Errorf("span %s is negative: %d", spanNames[i], v)
		}
		sum += v
	}
	if want := tl.t[tReturn] - tl.t[tInvoke]; sum != want {
		t.Errorf("spans add up to %d, invocation took %d", sum, want)
	}

	// A dedup replay never reaches the handler: dispatch takes its share.
	replay := tl
	replay.t[tHandlerIn], replay.t[tHandlerOut] = 0, 0
	d, ok = replay.spans()
	if !ok {
		t.Fatal("replay timeline reported incomplete")
	}
	if d[tHandlerIn] != 0 || d[tHandlerOut] != 0 {
		t.Errorf("replay has handler %d and reply %d spans, want 0", d[tHandlerIn], d[tHandlerOut])
	}
	if got, want := d[tServerRecv], replay.t[tServerSendIn]-replay.t[tServerRecv]; got != want {
		t.Errorf("replay dispatch span = %d, want %d", got, want)
	}

	missing := tl
	missing.t[tClientRecv] = 0
	if _, ok := missing.spans(); ok {
		t.Error("timeline without a client receive stamp reported complete")
	}

	means, complete := spanMeans([]timeline{tl, missing, tl})
	if complete != 2 {
		t.Errorf("complete = %d, want 2", complete)
	}
	var total float64
	for _, m := range means {
		total += m
	}
	if total != 130 {
		t.Errorf("span means add up to %v, want 130", total)
	}
}

// BENCHMARK.json is written by hand; it must name exactly what the
// program reports, with the same units and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program has %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, program has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json differs from the program's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs, true)
	check("per_layer", spec.PerLayer, perLayerDefs, false)
}

// The smoke pass runs all four workloads for half a second each, both
// sides of the benchmark: spawn, drive, verify, trace, tear down.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns proxyd processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := buildProxyd(root)
	if err != nil {
		t.Fatal(err)
	}
	m := &machine{proxyd: bin, cpus: place()}
	defer m.cpus.stop()
	defer killAllDaemons()
	start := time.Now()
	for _, w := range workloads {
		r, err := measureEndToEnd(m, w, 1, planFor(0.5, true))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct() || r.Attempted == 0 {
			t.Errorf("%s end to end: attempted %d, failed %d, problem %q", w.name, r.Attempted, r.Failed, r.Problem)
		}
		for _, d := range endToEndDefs {
			if r.get(d.name) <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, r.get(d.name))
			}
		}
		layers, err := measureLayers(m, w, 1, 1.5, filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatalf("%s layers: %v", w.name, err)
		}
		if !layers.correct() {
			t.Errorf("%s layers: failed %d, problem %q", w.name, layers.Failed, layers.Problem)
		}
		reported := make(map[string]bool)
		for _, mt := range layers.Metrics {
			reported[mt.Name] = true
		}
		for _, d := range perLayerDefs {
			if !reported[d.name] {
				t.Errorf("%s: per-layer metric %s not reported", w.name, d.name)
			}
		}
		// The predictions that separate the workloads.
		switch w.name {
		case "null-call":
			if v := layers.get("wire.staged_frac"); v != 0 {
				t.Errorf("null-call staged_frac = %v, want 0", v)
			}
			if v := layers.get("session.replies") + layers.get("overload.admitted_frac"); v != 0 {
				t.Errorf("null-call touched the session or admission gate: %v", v)
			}
		case "guarded-write":
			if layers.get("session.replies") <= 0 || layers.get("overload.admitted_frac") <= 0 {
				t.Errorf("guarded-write did not pass the gates: replies %v, admitted %v", layers.get("session.replies"), layers.get("overload.admitted_frac"))
			}
		}
	}
	if took := time.Since(start); took > 60*time.Second {
		t.Errorf("smoke pass took %v", took)
	}
	daemons.mu.Lock()
	left := len(daemons.live)
	daemons.mu.Unlock()
	if left != 0 {
		t.Errorf("%d daemons still running after the smoke pass", left)
	}
}
