// Package overload is the shared admission-control and degradation
// layer: the machinery that lets a saturated node keep doing useful work
// instead of collapsing. The proxy principle puts the service — not the
// client — in charge of how it degrades, so the pieces live below core
// where every proxy kind inherits them:
//
//   - Controller: server-side admission. An adaptive concurrency limit
//     (AIMD, learned from observed handler latency) with a small
//     priority-aware queue in front of it; requests that would wait past
//     the queue deadline are shed immediately with a retry-after hint
//     (CoDel's insight: a standing queue is the failure, so fail fast
//     instead of letting every caller time out). The kernel consults it
//     per inbound frame (kernel.WithAdmission).
//   - Budget: client-side retry budget. A per-destination token bucket
//     that caps the retransmit ratio (~10%), so retries cannot amplify
//     an outage into a storm (rpc.WithRetryBudget).
//   - DelayTracker: the hedging trigger. Tracks observed call latency
//     and answers "how long before a second attempt is worth sending"
//     (the p95), for the stub's hedged reads.
//
// Wire artifacts (the envelope's priority class, FlagPushback, the
// pushback payload) live in internal/wire so the kernel and rpc can read them
// without importing policy.
package overload

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Config tunes a Controller. The zero value selects the defaults noted
// on each field.
type Config struct {
	// MinLimit and MaxLimit bound the adaptive concurrency limit
	// (defaults 4 and 1024). InitialLimit is where it starts (default
	// 64, clamped into [MinLimit, MaxLimit]).
	MinLimit     int
	MaxLimit     int
	InitialLimit int

	// QueueLimit bounds how many requests may wait for a slot, across
	// all sheddable classes (default 256). Arrivals beyond it are shed
	// immediately (a normal-priority arrival evicts a queued low-
	// priority request first).
	QueueLimit int

	// QueueDeadline is the longest a request may wait in the queue
	// before it is shed (default 5ms). This is the CoDel-style sojourn
	// bound: a request that waited longer is answered with pushback at
	// dequeue time rather than served late.
	QueueDeadline time.Duration

	// Window is how many completions one limit adjustment averages over
	// (default 64).
	Window int

	// Tolerance is the multiple of the latency baseline (a decayed
	// minimum of observed handler latency) the windowed average may
	// reach before the limit is cut multiplicatively (default 2.0).
	Tolerance float64

	// RetryAfter is the base retry-after hint carried in pushback
	// responses; the hint grows with queue pressure (default 10ms).
	RetryAfter time.Duration

	// now is a test hook; nil means time.Now.
	now func() time.Time
}

func (cfg Config) withDefaults() Config {
	if cfg.MinLimit <= 0 {
		cfg.MinLimit = 4
	}
	if cfg.MaxLimit <= 0 {
		cfg.MaxLimit = 1024
	}
	if cfg.MaxLimit < cfg.MinLimit {
		cfg.MaxLimit = cfg.MinLimit
	}
	if cfg.InitialLimit <= 0 {
		cfg.InitialLimit = 64
	}
	if cfg.InitialLimit < cfg.MinLimit {
		cfg.InitialLimit = cfg.MinLimit
	}
	if cfg.InitialLimit > cfg.MaxLimit {
		cfg.InitialLimit = cfg.MaxLimit
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 256
	}
	if cfg.QueueDeadline <= 0 {
		cfg.QueueDeadline = 5 * time.Millisecond
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	if cfg.Tolerance <= 1 {
		cfg.Tolerance = 2.0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 10 * time.Millisecond
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return cfg
}

// decreaseFactor is the multiplicative cut applied to the limit when a
// window's average latency exceeds the tolerated target (the MD in
// AIMD); the additive increase is one slot per saturated window.
const decreaseFactor = 0.9

// item is one request waiting for an admission slot.
type item struct {
	pri  wire.Priority
	enq  time.Time
	run  func()
	shed func(retryAfter time.Duration)
}

// Controller is the server-side admission controller. Submit either runs
// the request (now or after a bounded queue wait), or sheds it by
// invoking its shed callback with a retry-after hint. Safe for
// concurrent use.
type Controller struct {
	cfg Config

	// launch starts an admitted request's goroutine (see SetLauncher).
	launch func(run func())

	mu       sync.Mutex
	inflight int
	limit    float64
	queues   [2][]*item // index 0: normal, 1: low
	queued   int

	// latency window for the AIMD adjustment
	winCount  int
	winSum    time.Duration
	winMin    time.Duration
	baseline  time.Duration
	saturated bool

	admitted  *obs.Counter
	bypass    *obs.Counter
	enqueued  *obs.Counter
	shedFull  *obs.Counter
	shedLate  *obs.Counter
	shedEvict *obs.Counter
	limitG    *obs.Gauge
	inflightG *obs.Gauge
	depthG    *obs.Gauge
	latency   *obs.Histogram
	queueWait *obs.Histogram
}

// NewController builds a controller publishing its metrics under
// scope+"overload." in reg (a private registry is created when reg is
// nil, keeping the controller usable in tests without wiring).
func NewController(cfg Config, reg *obs.Registry, scope string) *Controller {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	scope += "overload."
	c := &Controller{
		cfg:       cfg,
		limit:     float64(cfg.InitialLimit),
		admitted:  reg.Counter(scope + "admitted"),
		bypass:    reg.Counter(scope + "bypass"),
		enqueued:  reg.Counter(scope + "queued"),
		shedFull:  reg.Counter(scope + "shed.full"),
		shedLate:  reg.Counter(scope + "shed.late"),
		shedEvict: reg.Counter(scope + "shed.evicted"),
		limitG:    reg.Gauge(scope + "limit"),
		inflightG: reg.Gauge(scope + "inflight"),
		depthG:    reg.Gauge(scope + "queue.depth"),
		latency:   reg.Histogram(scope + "latency"),
		queueWait: reg.Histogram(scope + "queue.wait"),
	}
	c.limitG.Set(int64(cfg.InitialLimit))
	return c
}

// SetLauncher makes the controller start admitted requests through
// launch instead of a goroutine of its own. The hosting kernel node
// installs its handler workers here before any frame is dispatched, so a
// node has one place where handler goroutines start, with or without
// admission control; launch must not block and must not run the request
// on the calling goroutine. A controller no node hosts (unit tests, a
// micro-benchmark) keeps the plain goroutine.
func (c *Controller) SetLauncher(launch func(run func())) { c.launch = launch }

// start runs one admitted request off the calling goroutine.
func (c *Controller) start(run func()) {
	if c.launch == nil {
		go c.exec(run)
		return
	}
	c.launch(func() { c.exec(run) })
}

// Limit reports the current adaptive concurrency limit.
func (c *Controller) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.limit)
}

// Inflight reports how many admitted requests are currently running.
func (c *Controller) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Shed reports the total number of requests shed so far (all causes).
func (c *Controller) Shed() uint64 {
	return c.shedFull.Load() + c.shedLate.Load() + c.shedEvict.Load()
}

// Submit offers one request for admission. run executes the request (the
// controller starts it off the calling goroutine — see SetLauncher — and
// measures its latency);
// shed, which may be nil, is called with a retry-after hint when the
// request is rejected instead. PriorityHigh requests are never shed —
// they bypass the limit (counted in flight, so their completions still
// feed the latency signal). Decisions are made and callbacks invoked
// without blocking the caller beyond a short critical section, so the
// kernel's receive pump can call this directly.
func (c *Controller) Submit(pri wire.Priority, run func(), shed func(retryAfter time.Duration)) {
	c.mu.Lock()
	if pri == wire.PriorityHigh {
		c.inflight++
		c.inflightG.Set(int64(c.inflight))
		c.mu.Unlock()
		c.bypass.Inc()
		c.start(run)
		return
	}
	if c.inflight < int(c.limit) && c.queued == 0 {
		c.inflight++
		c.inflightG.Set(int64(c.inflight))
		c.mu.Unlock()
		c.admitted.Inc()
		c.start(run)
		return
	}
	// No free slot: queue, evict, or shed.
	c.saturated = true
	var evicted *item
	if c.queued >= c.cfg.QueueLimit {
		if pri == wire.PriorityNormal && len(c.queues[1]) > 0 {
			// Make room for a normal request by shedding the newest
			// queued low-priority one.
			lq := c.queues[1]
			evicted = lq[len(lq)-1]
			c.queues[1] = lq[:len(lq)-1]
			c.queued--
		} else {
			hint := c.hintLocked()
			c.mu.Unlock()
			c.shedFull.Inc()
			if shed != nil {
				shed(hint)
			}
			return
		}
	}
	qi := 0
	if pri == wire.PriorityLow {
		qi = 1
	}
	c.queues[qi] = append(c.queues[qi], &item{pri: pri, enq: c.cfg.now(), run: run, shed: shed})
	c.queued++
	c.depthG.Set(int64(c.queued))
	var hint time.Duration
	if evicted != nil {
		hint = c.hintLocked()
	}
	c.mu.Unlock()
	c.enqueued.Inc()
	if evicted != nil {
		c.shedEvict.Inc()
		if evicted.shed != nil {
			evicted.shed(hint)
		}
	}
}

// hintLocked computes the retry-after hint under the lock: the base hint
// scaled up with queue pressure, capped at 10× base.
func (c *Controller) hintLocked() time.Duration {
	limit := int(c.limit)
	if limit < 1 {
		limit = 1
	}
	scale := 1 + c.queued/limit
	if scale > 10 {
		scale = 10
	}
	return c.cfg.RetryAfter * time.Duration(scale)
}

// exec runs one admitted request and feeds its completion back.
func (c *Controller) exec(run func()) {
	start := c.cfg.now()
	run()
	c.release(c.cfg.now().Sub(start))
}

// release returns a slot, records the completion latency, adjusts the
// limit, and drains the queue: expired waiters are shed, fresh ones run.
func (c *Controller) release(lat time.Duration) {
	c.latency.Observe(lat)
	now := c.cfg.now()

	c.mu.Lock()
	c.inflight--
	c.recordLocked(lat)

	// Drain: shed queue heads that waited past the deadline whether or
	// not a slot is free (serving them late helps nobody), then admit
	// fresh waiters — normal before low — while slots last.
	var toShed []*item
	var toRun []*item
	for qi := 0; qi < 2; qi++ {
		q := c.queues[qi]
		for len(q) > 0 {
			head := q[0]
			if now.Sub(head.enq) > c.cfg.QueueDeadline {
				q = q[1:]
				c.queued--
				toShed = append(toShed, head)
				continue
			}
			if c.inflight >= int(c.limit) {
				break
			}
			q = q[1:]
			c.queued--
			c.inflight++
			toRun = append(toRun, head)
		}
		c.queues[qi] = q
	}
	c.inflightG.Set(int64(c.inflight))
	c.depthG.Set(int64(c.queued))
	var hint time.Duration
	if len(toShed) > 0 {
		c.saturated = true
		hint = c.hintLocked()
	}
	c.mu.Unlock()

	for _, it := range toShed {
		c.shedLate.Inc()
		c.queueWait.Observe(now.Sub(it.enq))
		if it.shed != nil {
			it.shed(hint)
		}
	}
	for _, it := range toRun {
		c.admitted.Inc()
		c.queueWait.Observe(now.Sub(it.enq))
		c.start(it.run)
	}
}

// recordLocked feeds one completion latency into the AIMD window and
// adjusts the limit when the window fills: multiplicative decrease when
// the average exceeds the tolerated target, additive increase when the
// window actually saturated the limit (growing an idle limit just delays
// the reaction to the next burst).
func (c *Controller) recordLocked(lat time.Duration) {
	c.winCount++
	c.winSum += lat
	if c.winMin == 0 || lat < c.winMin {
		c.winMin = lat
	}
	if c.winCount < c.cfg.Window {
		return
	}
	avg := c.winSum / time.Duration(c.winCount)
	// The baseline chases the windowed minimum — the closest observable
	// proxy for the uncongested service time — with a slow EWMA so a
	// genuinely slower service re-baselines instead of being throttled
	// forever.
	if c.baseline == 0 {
		c.baseline = c.winMin
	} else {
		c.baseline += (c.winMin - c.baseline) / 4
	}
	target := time.Duration(float64(c.baseline)*c.cfg.Tolerance) + c.cfg.QueueDeadline
	switch {
	case avg > target:
		c.limit *= decreaseFactor
		if c.limit < float64(c.cfg.MinLimit) {
			c.limit = float64(c.cfg.MinLimit)
		}
	case c.saturated:
		c.limit++
		if c.limit > float64(c.cfg.MaxLimit) {
			c.limit = float64(c.cfg.MaxLimit)
		}
	}
	c.limitG.Set(int64(c.limit))
	c.winCount, c.winSum, c.winMin, c.saturated = 0, 0, 0, false
}
