package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/netsim"
)

// rig is one server lifetime with a connected client and the callers
// that drive it. The server is a proxyd process, or for the traced run
// one assembled in this process (d is nil then, and the owner closes it).
type rig struct {
	w       workload
	d       *daemon
	cs      *clientStack
	callers []*caller
	// all holds every caller that ever wrote to this server (the closed-
	// loop callers and the open-loop workers): the final audit sums their
	// ledgers.
	all []*caller
}

// openRig starts a daemon for w and connects to it. The caller must
// close the rig.
func openRig(m *machine, w workload, seed int64, withHTTP bool) (*rig, error) {
	d, err := startDaemon(m, w.daemonFlags, withHTTP)
	if err != nil {
		return nil, err
	}
	b, err := connectRig(w, seed, d.addr, false, nil)
	if err != nil {
		d.stop()
		return nil, err
	}
	b.d = d
	return b, nil
}

// connectRig dials the server at addr (in this process or not), builds
// the workload's callers, and preloads the keys the workload reads.
func connectRig(w workload, seed int64, addr string, inproc bool, wrap func(netsim.Endpoint) netsim.Endpoint) (*rig, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cs, err := dial(ctx, addr, w.guarded, inproc, wrap)
	if err != nil {
		return nil, err
	}
	b := &rig{w: w, cs: cs}
	b.callers = b.addCallers(w.callers, 0, seed)
	if w.preload {
		for _, c := range b.callers {
			if err := c.load(ctx); err != nil {
				b.close()
				return nil, err
			}
		}
	}
	return b, nil
}

func (b *rig) addCallers(n, stripe int, seed int64) []*caller {
	cs := make([]*caller, n)
	for i := range cs {
		cs[i] = newCaller(b.w, stripe+i, seed, b.cs.kv)
	}
	b.all = append(b.all, cs...)
	return cs
}

func (b *rig) close() {
	b.cs.close()
	if b.d != nil {
		b.d.stop()
	}
}

// audit checks the server's sum() against every ledger of the run and
// reports the first wrong reply any caller saw.
func (b *rig) audit() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range b.all {
		if c.failed > 0 {
			return fmt.Errorf("%d wrong replies, first: %s", c.failed, c.firstErr)
		}
	}
	return auditSum(ctx, b.cs.kv, b.all)
}

// coldStart times one set-up as a user would see it: exec proxyd, wait
// for its listen line, import the directory, resolve the service, and
// make a first verified invocation.
func coldStart(m *machine, w workload) (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(m, w.daemonFlags, false)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cs, err := dial(ctx, d.addr, w.guarded, false, nil)
	if err != nil {
		return 0, err
	}
	defer cs.close()
	res, err := cs.kv.Invoke(ctx, "put", "coldkey0", int64(7))
	if err != nil || len(res) != 1 || res[0] != any(int64(7)) {
		return 0, fmt.Errorf("first invoke: got %v, %v; want [7]", res, err)
	}
	return time.Since(start), nil
}

// window is what one timed stretch of closed-loop driving measured.
type window struct {
	ops, failed uint64
	elapsed     time.Duration
	lat         []int64 // every invocation's latency in ns, ascending

	mallocs, allocBytes  uint64
	gcPause              time.Duration
	clientCPU, daemonCPU float64 // seconds
}

func (win window) throughput() float64 { return float64(win.ops) / win.elapsed.Seconds() }

// selfCPU reports this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// driveClosed runs every caller in a closed loop — next invocation only
// after the previous reply — for d, and reports what the stretch cost.
// step is the workload's step, or the traced run's wrapper around it.
// daemon may be nil (in-process server).
func driveClosed(callers []*caller, step func(*caller) bool, d time.Duration, daemon *daemon) window {
	lats := make([][]int64, len(callers))
	for i := range lats {
		lats[i] = make([]int64, 0, 1<<16)
	}
	var before, after runtime.MemStats
	var failed0 uint64
	for _, c := range callers {
		failed0 += c.failed
	}
	var dcpu0 float64
	if daemon != nil {
		dcpu0, _ = daemon.cpuSeconds()
	}
	runtime.ReadMemStats(&before)
	cpu0 := selfCPU()

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			lat := lats[i]
			for now := time.Now(); now.Before(deadline); {
				step(c)
				end := time.Now()
				lat = append(lat, int64(end.Sub(now)))
				now = end
			}
			lats[i] = lat
		}(i, c)
	}
	wg.Wait()
	win := window{elapsed: time.Since(start)}

	win.clientCPU = selfCPU() - cpu0
	runtime.ReadMemStats(&after)
	if daemon != nil {
		dcpu1, _ := daemon.cpuSeconds()
		win.daemonCPU = dcpu1 - dcpu0
	}
	win.mallocs = after.Mallocs - before.Mallocs
	win.allocBytes = after.TotalAlloc - before.TotalAlloc
	win.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	for i, c := range callers {
		win.lat = append(win.lat, lats[i]...)
		win.failed += c.failed
	}
	win.failed -= failed0
	win.ops = uint64(len(win.lat))
	sort.Slice(win.lat, func(i, j int) bool { return win.lat[i] < win.lat[j] })
	return win
}

// harnessAllocs measures what the harness itself allocates per
// invocation — argument boxing, contexts, ledger checks — by running the
// workload's steps against a proxy that does nothing.
func harnessAllocs(w workload, seed int64) float64 {
	c := newCaller(w, 0, seed, discardProxy{})
	c.dry = true
	for i := range c.vals {
		c.vals[i] = 1 << 39 // boxed like the values of a real run, see load
	}
	const n = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		w.step(c)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// openLoop is what the fixed-rate phase measured.
type openLoop struct {
	sent, failed uint64
	lat          []int64 // completion − due time, ns, ascending
	lag          []int64 // release − due time, ns, ascending
	backlogMax   int64   // most requests released and unfinished at once
}

// openLoopShare is the fixed rate of the open-loop phase, as a share of
// the closed-loop throughput measured just before. Eight closed-loop
// callers batch well (trains, group commit), so their throughput is well
// above what the same CPUs sustain for requests arriving on a schedule:
// at 0.4 the generator's side saturated, the backlog grew to thousands
// and retransmissions fed it. A quarter leaves the queue stable.
const openLoopShare = 0.25

// openLoopWorkers is how many requests the fixed-rate phase can have in
// flight; released requests beyond it wait in the work queue and show as
// backlog.
const openLoopWorkers = 32

// driveOpen offers invocations at a fixed rate for d, whatever the
// daemon's pace: request i is due at i/rate, a dispatcher releases every
// due request on a 1 ms tick, and each request's latency is counted from
// its due time, so a stall is charged to every request it delays and not
// only to the one that hit it (no coordinated omission). How late the
// dispatcher itself ran is reported beside it.
func driveOpen(b *rig, seed int64, rate float64, d time.Duration) openLoop {
	n := int(rate * d.Seconds())
	ol := openLoop{lat: make([]int64, n), lag: make([]int64, 0, n)}
	if n == 0 {
		return ol
	}
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(float64(i) / rate * 1e9)
	}
	workers := b.addCallers(openLoopWorkers, len(b.callers), seed)

	// Sized to the whole schedule, so the dispatcher never blocks on a
	// slow daemon: that would be coordinated omission by another name.
	work := make(chan int, n)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range workers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := range work {
				b.w.step(c)
				ol.lat[i] = int64(time.Since(start)) - due[i]
				outstanding.Add(-1)
			}
		}(c)
	}
	tick := time.NewTicker(time.Millisecond)
	next := 0
	for next < n {
		<-tick.C
		now := int64(time.Since(start))
		for next < n && due[next] <= now {
			ol.backlogMax = max(ol.backlogMax, outstanding.Add(1))
			ol.lag = append(ol.lag, now-due[next])
			work <- next
			next++
		}
	}
	tick.Stop()
	close(work)
	wg.Wait()
	for _, c := range workers {
		ol.sent += c.attempted
		ol.failed += c.failed
	}
	sort.Slice(ol.lat, func(i, j int) bool { return ol.lat[i] < ol.lat[j] })
	sort.Slice(ol.lag, func(i, j int) bool { return ol.lag[i] < ol.lag[j] })
	return ol
}
