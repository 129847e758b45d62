package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// metric is one reported number, with the spread and count of the
// samples it was taken from.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	IQR     float64 `json:"iqr"`
	Samples int     `json:"samples"`
}

// metricDef fixes a metric's name, unit and direction; bound is how far
// an end-to-end median may worsen, as a share, before it is a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndDefs are the metrics a user of the system would see, measured
// only by the untraced multi-process run. fail_frac is reported with
// them but is not in BENCHMARK.json, whose metrics must never be 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.15},
	{"latency_p50_us", "us", "lower", 0.15},
	{"latency_p99_us", "us", "lower", 0.20},
	{"client_allocs_per_op", "count", "lower", 0.02},
	{"daemon_rss_mb", "MiB", "lower", 0.10},
}

// plan sizes one untraced run.
type plan struct {
	warmup time.Duration
	reps   int
	rep    time.Duration
}

// planFor cuts seconds of measuring into half-second repetitions behind
// a discarded warm-up; the smoke plan is one short repetition.
func planFor(seconds float64, smoke bool) plan {
	total := time.Duration(seconds * float64(time.Second))
	if smoke {
		return plan{warmup: total / 5, reps: 1, rep: total}
	}
	reps := max(int(2*seconds), 10)
	return plan{warmup: 2 * time.Second, reps: reps, rep: total / time.Duration(reps)}
}

// best reports the value a tenth of the way into vals from their good
// end — the 90th percentile when higher is better, the 10th when lower
// is. Whatever else runs on the host only ever slows a repetition down,
// and in slow waves several seconds long that a median over a run does
// not average out; the good decile of many short repetitions is what the
// undisturbed machine does, and it repeats from run to run where the
// median does not. One repetition in ten is left out beyond it, so a
// single lucky second does not set the figure.
func best(name, unit string, vals []float64, higher bool) metric {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	p := 10.0
	if higher {
		p = 90
	}
	rank := max(int(math.Ceil(p/100*float64(len(s)))), 1)
	return metric{Name: name, Unit: unit, Value: s[rank-1], IQR: iqr(vals), Samples: len(vals)}
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Metrics   []metric `json:"metrics"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	// Problem is the first verification failure, empty when the run is
	// correct.
	Problem string `json:"problem,omitempty"`
}

// metric finds a reported metric by name; the zero metric if absent.
func (r *result) metric(name string) metric {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

func (r *result) get(name string) float64 { return r.metric(name).Value }

// add reports one per-layer metric; its unit is the one perLayerDefs
// fixes for the name.
func (r *result) add(name string, v float64) {
	unit := ""
	for _, d := range perLayerDefs {
		if d.name == name {
			unit = d.unit
		}
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, Samples: 1})
}

// count folds a stretch of driving into the run's totals.
func (r *result) count(ops, failed uint64) {
	r.Attempted += ops
	r.Failed += failed
}

func (r *result) problem(err error) {
	if err != nil && r.Problem == "" {
		r.Problem = err.Error()
	}
}

// measureEndToEnd is the untraced run: one daemon lifetime of warm-up
// and timed repetitions driven by the workload's closed-loop callers,
// every reply verified, with a cold start of a second daemon for setup_s
// before the first repetition and after each one — spread over the run,
// so that one slow second of the host cannot catch them all.
func measureEndToEnd(m *machine, w workload, seed int64, p plan) (*result, error) {
	res := &result{Workload: w.name, Seed: seed}
	confine(m.cpus.generator)
	var setups []float64
	cold := func() error {
		d, err := coldStart(m, w)
		if err != nil {
			return fmt.Errorf("cold start: %w", err)
		}
		setups = append(setups, d.Seconds())
		return nil
	}
	if err := cold(); err != nil {
		return nil, err
	}
	harness := harnessAllocs(w, seed)

	b, err := openRig(m, w, seed, false)
	if err != nil {
		return nil, err
	}
	defer b.close()
	driveClosed(b.callers, w.step, p.warmup, b.d)
	for _, c := range b.callers {
		// Warm-up invocations are verified too, but not counted.
		c.attempted = 0
	}
	var tput, p50, p99, allocs []float64
	for i := 0; i < p.reps; i++ {
		win := driveClosed(b.callers, w.step, p.rep, b.d)
		if win.ops == 0 {
			return nil, fmt.Errorf("repetition %d completed no invocation", i)
		}
		res.count(win.ops, win.failed)
		tput = append(tput, win.throughput())
		p50 = append(p50, float64(percentile(win.lat, 50))/1e3)
		p99 = append(p99, float64(percentile(win.lat, 99))/1e3)
		allocs = append(allocs, float64(win.mallocs)/float64(win.ops)-harness)
		if err := cold(); err != nil {
			return nil, err
		}
	}
	rss, err := b.d.rssMiB()
	if err != nil {
		return nil, err
	}
	res.problem(b.audit())

	res.Metrics = []metric{
		best("setup_s", "s", setups, false),
		best("throughput_ops_s", "1/s", tput, true),
		best("latency_p50_us", "us", p50, false),
		best("latency_p99_us", "us", p99, false),
		best("client_allocs_per_op", "count", allocs, false),
		{Name: "daemon_rss_mb", Unit: "MiB", Value: rss, Samples: 1},
		{Name: "fail_frac", Unit: "ratio", Value: ratio(float64(res.Failed), float64(res.Attempted)), Samples: 1},
	}
	return res, nil
}

// counters is a snapshot of what the generator process can count about
// its own stack from outside it.
type counters struct {
	co    wire.CoalescerStats
	pool  wire.PoolStats
	train wire.TrainStats
	rpc   rpc.ClientStats
}

func snapshot(cs *clientStack) counters {
	return counters{co: cs.co.Stats(), pool: wire.ReadPoolStats(), train: wire.ReadTrainStats(), rpc: cs.rt.Client().Stats()}
}

// measureLayers is the traced side of the benchmark: counters scraped
// around an untraced multi-process stretch, the open-loop phase on the
// same daemon, the in-process traced run, and the layer ladder. seconds
// is split between them. traceFile, when not empty, receives the spans.
func measureLayers(m *machine, w workload, seed int64, seconds float64, traceFile string) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Traced: true}
	share := func(f float64) time.Duration { return time.Duration(seconds * f * float64(time.Second)) }

	closedFor, openFor := share(0.55), time.Duration(0)
	if w.openLoop {
		closedFor, openFor = share(0.30), share(0.25)
	}
	untracedP50, err := measureCounters(m, w, seed, closedFor, openFor, res)
	if err != nil {
		return nil, err
	}
	// Both halves of the system run in this process from here on, so it
	// takes both halves of the machine.
	confine(m.cpus.all())
	if err := measureSpans(w, seed, share(0.25), traceFile, res); err != nil {
		return nil, err
	}
	rungs, err := ladder(w, seed, share(0.20), untracedP50)
	if err != nil {
		return nil, err
	}
	for _, def := range perLayerDefs {
		if v, ok := rungs[def.name]; ok {
			res.add(def.name, v)
		}
	}
	return res, nil
}

// measureCounters drives a daemon untraced for d while counting from
// outside — the client stack's own statistics, the generator's memory
// and CPU accounts, the daemon's /metrics and /proc entries — and then
// runs the open-loop phase against the same daemon. It returns the
// stretch's p50 in µs, the untraced figure the traced run and the ladder
// are compared with.
func measureCounters(m *machine, w workload, seed int64, d, openFor time.Duration, res *result) (float64, error) {
	confine(m.cpus.generator)
	b, err := openRig(m, w, seed, true)
	if err != nil {
		return 0, err
	}
	defer b.close()
	driveClosed(b.callers, w.step, d/5, b.d)
	for _, c := range b.callers {
		c.attempted, c.replays = 0, 0
	}

	dm0, err := b.d.scrapeMetrics()
	if err != nil {
		return 0, err
	}
	c0 := snapshot(b.cs)
	win := driveClosed(b.callers, w.step, d, b.d)
	c1 := snapshot(b.cs)
	dm1, err := b.d.scrapeMetrics()
	if err != nil {
		return 0, err
	}
	if win.ops == 0 {
		return 0, fmt.Errorf("counter stretch completed no invocation")
	}
	res.count(win.ops, win.failed)
	ops := float64(win.ops)
	delta := func(name string) float64 { return dm1[name] - dm0[name] }

	// Frames handed to TCP: the client's are its coalescer's sends; the
	// daemon's are counted where they arrive, one reply per invocation
	// less those that came packed in trains, plus the trains themselves.
	co0, co1 := c0.co, c1.co
	toTCP := func(s wire.CoalescerStats) uint64 {
		return s.DirectSends + s.InlineSends + s.Overflow + s.SoloFlushes + s.TrainsSent
	}
	offered := func(s wire.CoalescerStats) uint64 {
		return s.DirectSends + s.InlineSends + s.Overflow + s.StagedFrames
	}
	clientFrames := float64(toTCP(co1) - toTCP(co0))
	membersIn := float64(c1.train.MembersUnpacked - c0.train.MembersUnpacked)
	trainsIn := float64(c1.train.TrainsUnpacked - c0.train.TrainsUnpacked)
	res.add("wire.frames_per_op", (clientFrames+ops-membersIn+trainsIn)/ops)
	res.add("wire.train_fill", ratio(float64(co1.TrainFrames-co0.TrainFrames)+membersIn, float64(co1.TrainsSent-co0.TrainsSent)+trainsIn))
	res.add("wire.staged_frac", ratio(float64(co1.StagedFrames-co0.StagedFrames), float64(offered(co1)-offered(co0))))
	// The lower of the client's hit rate over its frame and buffer pools
	// and the daemon's over its frame pool (it draws no pooled buffers):
	// a pool that stops recycling on either side shows.
	gets := float64((c1.pool.FrameGets + c1.pool.BufGets) - (c0.pool.FrameGets + c0.pool.BufGets))
	misses := float64((c1.pool.FrameMisses + c1.pool.BufMisses) - (c0.pool.FrameMisses + c0.pool.BufMisses))
	res.add("wire.pool_hit_frac", min(1-ratio(misses, gets), dm1["wire.pool.frame_hit_rate"]))

	retransmits := float64(c1.rpc.Retransmits - c0.rpc.Retransmits)
	res.add("rpc.retransmits_per_kop", retransmits/ops*1e3)
	res.add("session.hit_frac", delta("session.hits")/ops)
	res.add("session.replies", dm1["session.replies"])
	shed := delta("overload.shed.full") + delta("overload.shed.late") + delta("overload.shed.evicted")
	res.add("overload.admitted_frac", delta("overload.admitted")/ops)
	res.add("overload.shed_frac", shed/ops)
	res.add("overload.limit", dm1["overload.limit"])

	res.add("client.cpu_us_per_op", win.clientCPU/ops*1e6)
	res.add("proxyd.cpu_us_per_op", win.daemonCPU/ops*1e6)
	res.add("client.bytes_per_op", float64(win.allocBytes)/ops)
	res.add("client.gc_pause_ms", float64(win.gcPause)/1e6)

	// Every replay the callers sent must have been answered from the
	// dedup table, and beyond those only retransmitted writes may have.
	if w.guarded {
		var replays float64
		for _, c := range b.callers {
			replays += float64(c.replays)
		}
		if hits := delta("session.hits"); hits < replays || hits > replays+retransmits {
			res.problem(fmt.Errorf("daemon answered %v requests from its dedup table; callers replayed %v and retransmitted %v", hits, replays, retransmits))
		}
	}

	// Open loop, where the workload has one: a fixed quarter of what the
	// closed loop just sustained. Elsewhere its metrics read 0.
	var olP50, olP99, lagP99 int64
	var ol openLoop
	if openFor > 0 {
		ol = driveOpen(b, seed, openLoopShare*win.throughput(), openFor)
		res.count(ol.sent, ol.failed)
		if len(ol.lat) > 0 {
			olP50, olP99, lagP99 = percentile(ol.lat, 50), percentile(ol.lat, 99), percentile(ol.lag, 99)
		}
	}
	res.add("queue.openloop_p50_us", float64(olP50)/1e3)
	res.add("queue.openloop_p99_us", float64(olP99)/1e3)
	res.add("queue.backlog_max", float64(ol.backlogMax))
	res.add("loadgen.lag_p99_us", float64(lagP99)/1e3)
	res.problem(b.audit())
	return float64(percentile(win.lat, 50)) / 1e3, nil
}

// inprocStretch assembles server and client in this process, with taps
// when rec is not nil, drives the workload for d behind a warm-up, and
// audits the ledgers.
func inprocStretch(w workload, seed int64, d time.Duration, rec *recorder, res *result) (window, error) {
	srv, err := startInproc(w, rec)
	if err != nil {
		return window{}, err
	}
	defer srv.close()
	var wrap func(netsim.Endpoint) netsim.Endpoint
	step := w.step
	if rec != nil {
		wrap = func(ep netsim.Endpoint) netsim.Endpoint { return newTap(ep, rec, true) }
		step = rec.tracedStep(w.step)
	}
	b, err := connectRig(w, seed, srv.addr, true, wrap)
	if err != nil {
		return window{}, err
	}
	defer b.close()
	driveClosed(b.callers, step, d/5, nil)
	if rec != nil {
		for _, c := range b.callers {
			rec.ops[stripeOf(c.keys[0])] = c.op
		}
		if len(b.callers) == 1 {
			rec.solo = b.callers[0]
		}
		rec.on.Store(true)
	}
	win := driveClosed(b.callers, step, d, nil)
	if rec != nil {
		rec.on.Store(false)
	}
	res.count(win.ops, win.failed)
	res.problem(b.audit())
	if win.ops == 0 {
		return win, fmt.Errorf("in-process stretch completed no invocation")
	}
	return win, nil
}

// measureSpans is the traced run: server and client in this process with
// taps recording, after the same assembly without taps as the baseline
// for the tracing overhead; d is split between the two. It adds the
// span.* means and their cover of the traced mean latency.
func measureSpans(w workload, seed int64, d time.Duration, traceFile string, res *result) error {
	bare, err := inprocStretch(w, seed, d*2/5, nil, res)
	if err != nil {
		return err
	}
	rec := newRecorder()
	win, err := inprocStretch(w, seed, d*3/5, rec, res)
	if err != nil {
		return err
	}

	tls := rec.timelines()
	means, complete := spanMeans(tls)
	var sum, tracedMean float64
	for i, name := range spanNames {
		res.add("span."+name+"_ns", means[i])
		sum += means[i]
	}
	for _, l := range win.lat {
		tracedMean += float64(l)
	}
	tracedMean /= float64(len(win.lat))
	cover := sum / tracedMean
	res.add("span.cover_frac", cover)
	res.add("trace.overhead_frac", float64(percentile(win.lat, 50))/float64(percentile(bare.lat, 50))-1)
	// Some stamps are legitimately missing at the edges (a server Send
	// still returning when the run stops), but not many.
	if float64(complete) < 0.95*float64(len(tls)) {
		res.problem(fmt.Errorf("only %d of %d traced invocations have all their stamps", complete, len(tls)))
	}
	if cover < 0.95 || cover > 1.05 {
		res.problem(fmt.Errorf("spans cover %.3f of the traced mean latency, want 1 ± 0.05", cover))
	}
	if traceFile != "" {
		if err := writeTrace(traceFile, tls); err != nil {
			return fmt.Errorf("write %s: %w", filepath.Base(traceFile), err)
		}
	}
	return nil
}
