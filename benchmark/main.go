// Command benchmark is the repository's benchmark: it builds cmd/proxyd,
// runs real proxyd processes on loopback TCP, drives them from this one
// load-generator process through the client stack cmd/proxyctl assembles,
// verifies every reply, and prints every metric by name and unit.
// README.md beside it records the workloads, the metrics and the rules.
//
//	go run -C benchmark .                        every workload, untraced then traced
//	go run -C benchmark . -aa                    the untraced set twice, compared against the bounds
//	go run -C benchmark . --workload null-call --seed 1 --seconds 16 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one run,
// and a JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// perLayerDefs are the single-layer metrics the traced side reports:
// ladder.* from the layer ladder, span.* from the traced run, the rest
// counted from outside the program. README.md says which end-to-end
// metric each should move, and on which workload.
var perLayerDefs = []metricDef{
	{name: "ladder.codec.encode_ns", unit: "ns", better: "lower"},
	{name: "ladder.codec.decode_ns", unit: "ns", better: "lower"},
	{name: "ladder.codec.allocs", unit: "count", better: "lower"},
	{name: "ladder.core.request_encode_ns", unit: "ns", better: "lower"},
	{name: "ladder.core.request_decode_ns", unit: "ns", better: "lower"},
	{name: "ladder.core.results_encode_ns", unit: "ns", better: "lower"},
	{name: "ladder.core.results_decode_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.headers_append_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.headers_split_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.deadline_rewrite_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.frame_encode_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.frame_decode_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.frame_mb_s", unit: "MB/s", better: "higher"},
	{name: "ladder.wire.train_pack_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.train_unpack_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.coalescer_send1_ns", unit: "ns", better: "lower"},
	{name: "ladder.wire.coalescer_send8_ns", unit: "ns", better: "lower"},
	{name: "ladder.netsim.tcp_rtt_ns", unit: "ns", better: "lower"},
	{name: "ladder.netsim.tcp_send_ns", unit: "ns", better: "lower"},
	{name: "ladder.kernel.call_rtt_ns", unit: "ns", better: "lower"},
	{name: "ladder.kernel.self_ns", unit: "ns", better: "lower"},
	{name: "ladder.rpc.call_rtt_ns", unit: "ns", better: "lower"},
	{name: "ladder.rpc.self_ns", unit: "ns", better: "lower"},
	{name: "ladder.core.invoke_rtt_ns", unit: "ns", better: "lower"},
	{name: "ladder.core.self_ns", unit: "ns", better: "lower"},
	{name: "ladder.residual_frac", unit: "ratio", better: "lower"},
	{name: "ladder.session.begin_commit_ns", unit: "ns", better: "lower"},
	{name: "ladder.session.replay_ns", unit: "ns", better: "lower"},
	{name: "ladder.overload.submit_ns", unit: "ns", better: "lower"},
	{name: "span.client_send_ns", unit: "ns", better: "lower"},
	{name: "span.client_xmit_ns", unit: "ns", better: "lower"},
	{name: "span.wire_out_ns", unit: "ns", better: "lower"},
	{name: "span.server_dispatch_ns", unit: "ns", better: "lower"},
	{name: "span.handler_ns", unit: "ns", better: "lower"},
	{name: "span.server_reply_ns", unit: "ns", better: "lower"},
	{name: "span.server_xmit_ns", unit: "ns", better: "lower"},
	{name: "span.wire_back_ns", unit: "ns", better: "lower"},
	{name: "span.client_wake_ns", unit: "ns", better: "lower"},
	{name: "span.cover_frac", unit: "ratio", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "wire.frames_per_op", unit: "count", better: "lower"},
	{name: "wire.train_fill", unit: "count", better: "higher"},
	{name: "wire.staged_frac", unit: "ratio", better: "higher"},
	{name: "wire.pool_hit_frac", unit: "ratio", better: "higher"},
	{name: "rpc.retransmits_per_kop", unit: "count", better: "lower"},
	{name: "session.hit_frac", unit: "ratio", better: "lower"},
	{name: "session.replies", unit: "count", better: "lower"},
	{name: "overload.admitted_frac", unit: "ratio", better: "higher"},
	{name: "overload.shed_frac", unit: "ratio", better: "lower"},
	{name: "overload.limit", unit: "count", better: "higher"},
	{name: "client.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proxyd.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "client.bytes_per_op", unit: "B", better: "lower"},
	{name: "client.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "queue.openloop_p50_us", unit: "us", better: "lower"},
	{name: "queue.openloop_p99_us", unit: "us", better: "lower"},
	{name: "queue.backlog_max", unit: "count", better: "lower"},
	{name: "loadgen.lag_p99_us", unit: "us", better: "lower"},
}

// host describes where a result was measured; a number without it
// cannot be compared with another.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	BuildS     float64 `json:"build_s"`
	Network    string  `json:"network"`
	Placement  string  `json:"placement"`
}

func hostBlock(root string, build time.Duration, placement string) host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown",
		Go: runtime.Version(), Commit: "unknown", BuildS: build.Seconds(),
		Network:   "loopback TCP (127.0.0.1), one connection per daemon; no real link crossed",
		Placement: placement,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// report is what a results file holds.
type report struct {
	Time    string  `json:"time"`
	Host    host    `json:"host"`
	Seconds float64 `json:"seconds"`
	// StealFrac is the share of CPU time the hypervisor kept from this
	// guest while the benchmark ran: a result taken while a neighbour
	// had the machine is not one to compare.
	StealFrac float64   `json:"steal_frac"`
	Results   []*result `json:"results"`
}

// cpuTicks reads the first line of /proc/stat: all ticks, and those the
// hypervisor stole.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if i == 0 || err != nil {
			continue
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func (r report) write(dir string) (string, error) {
	path := filepath.Join(dir, r.Time+".json")
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func printResult(r *result) {
	kind := "end to end (untraced, multi-process)"
	if r.Traced {
		kind = "per layer (ladder, traced run, counters)"
	}
	fmt.Printf("\n%s  seed %d  %s\n", r.Workload, r.Seed, kind)
	fmt.Printf("  %-34s %14s %-6s %12s %9s\n", "metric", "value", "unit", "iqr", "samples")
	for _, m := range r.Metrics {
		fmt.Printf("  %-34s %14.4f %-6s %12.4f %9d\n", m.Name, m.Value, m.Unit, m.IQR, m.Samples)
	}
	fmt.Printf("  invocations attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.Problem != "" {
		fmt.Printf("  INCORRECT: %s\n", r.Problem)
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Problem == "" }

// contractLine is the JSON object the benchmark contract wants as the
// last line of standard output: exactly the metrics BENCHMARK.json lists
// for the kind of run this was.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEndDefs
	if r.Traced {
		defs = perLayerDefs
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.name] = mv{Value: r.get(d.name), Unit: d.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(line)
}

// compareAA prints, per workload and end-to-end metric, how far the
// second set's median is from the first beside the bound, and reports
// whether every one stayed within it. A metric whose own repetitions
// spread wider than its bound is unresolved, not unchanged.
func compareAA(first, second []*result) bool {
	ok := true
	fmt.Printf("\nA/A: the same binary measured twice\n")
	fmt.Printf("  %-14s %-22s %12s %12s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	for i, a := range first {
		b := second[i]
		for _, def := range endToEndDefs {
			va, vb := a.get(def.name), b.get(def.name)
			worse := ratio(vb-va, va)
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "within"
			spread := ratio(a.metric(def.name).IQR, va)
			switch {
			case worse > def.bound:
				verdict, ok = "EXCEEDED", false
			case spread > def.bound:
				verdict = "unresolved (spread wider than bound)"
			}
			fmt.Printf("  %-14s %-22s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n", a.Workload, def.name, va, vb, 100*worse, 100*def.bound, verdict)
		}
	}
	return ok
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadFlag = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all, as tables)")
		seed         = flag.Int64("seed", 1, "fixes key order and operation mix")
		seconds      = flag.Float64("seconds", 16, "how long one run measures")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		aa           = flag.Bool("aa", false, "run the untraced set twice on the same binary and compare against the bounds")
		smoke        = flag.Bool("smoke", false, "one short repetition per workload: exercises spawn, drive, verify, teardown")
	)
	flag.Parse()
	killDaemonsOnSignal()
	defer killAllDaemons()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	bin, buildTook, err := buildProxyd(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	m := &machine{proxyd: bin, cpus: place()}
	defer m.cpus.stop()
	confine(m.cpus.generator)
	if *smoke {
		*seconds = 0.5
	}
	p := planFor(*seconds, *smoke)
	ticks0, steal0 := cpuTicks()
	rep := report{Time: time.Now().UTC().Format("20060102T150405.000Z"), Host: hostBlock(root, buildTook, m.cpus.note), Seconds: *seconds}
	fmt.Printf("host: %+v\n", rep.Host)

	selected := workloads
	if *workloadFlag != "" {
		w, ok := workloadByName(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadFlag)
			return 2
		}
		selected = []workload{w}
	}
	resultsDir := filepath.Join(root, "benchmark", "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// A pass measures every selected workload one way; traced says which.
	pass := func(traced bool) ([]*result, error) {
		var out []*result
		for _, w := range selected {
			var r *result
			var err error
			if traced {
				r, err = measureLayers(m, w, *seed, *seconds, filepath.Join(resultsDir, rep.Time+"-"+w.name+"-trace.json"))
			} else {
				r, err = measureEndToEnd(m, w, *seed, p)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(r)
			out = append(out, r)
		}
		return out, nil
	}
	passes := []bool{false, true} // everything: untraced, then traced
	switch {
	case *aa:
		passes = []bool{false, false}
	case *workloadFlag != "":
		passes = []bool{*trace == 1}
	}
	var sets [][]*result
	for _, traced := range passes {
		set, err := pass(traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		sets = append(sets, set)
		rep.Results = append(rep.Results, set...)
	}
	failed := *aa && !compareAA(sets[0], sets[1])
	for _, r := range rep.Results {
		failed = failed || !r.correct()
	}
	ticks1, steal1 := cpuTicks()
	rep.StealFrac = ratio(steal1-steal0, ticks1-ticks0)
	fmt.Printf("\nhypervisor steal while running: %.1f%% of CPU time\n", 100*rep.StealFrac)
	path, err := rep.write(resultsDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", path)
	if *workloadFlag != "" && !*aa {
		fmt.Println(contractLine(rep.Results[0]))
	}
	if failed {
		return 1
	}
	return 0
}
