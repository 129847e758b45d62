package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/wire"
)

// workload is one traffic mix. Its step makes exactly one stub
// invocation and verifies the reply against the caller's own ledger.
type workload struct {
	name string
	why  string
	// daemonFlags are the proxyd flags beyond -with-kv; guarded selects
	// the matching client option (core.WithSessions) and, in the traced
	// run, the same kernel options assembled in-process.
	daemonFlags []string
	guarded     bool
	callers     int
	keys        int // keys in each caller's stripe
	preload     bool
	// openLoop adds the fixed-rate phase to the traced side's run.
	openLoop bool
	step     func(c *caller) bool
}

// workloads are the benchmark's four traffic mixes; README.md records
// why each exists and which layers it stresses.
var workloads = []workload{
	{
		name:    "null-call",
		why:     "one caller, get on 8-byte keys: smallest message, so per-message cost is everything; coalescer inline, admission and dedup off",
		callers: 1, keys: 1024, preload: true,
		step: (*caller).stepGet,
	},
	{
		name:    "bulk-call",
		why:     "one caller, noop with a 16 KiB string argument: bytes dominate (copies, CRC, read allocation), so a zero-copy change moves this and not null-call",
		callers: 1, keys: 1,
		step: (*caller).stepBulk,
	},
	{
		name:    "fanin-mix",
		why:     "eight callers on one runtime and one connection, 50/50 get/put: the only mix where staged coalescing, trains, group commit and the sharded pending table do work",
		callers: 8, keys: 128, openLoop: true,
		step: (*caller).stepMix,
	},
	{
		name:        "guarded-write",
		why:         "null-call's one caller, but under 1 s deadlines against -session-dedup -overload: 50% session-stamped incr with 1% replays, 50% low-priority get; headers, admission gate, dedup table in use",
		daemonFlags: []string{"-session-dedup", "-overload"},
		guarded:     true,
		callers:     1, keys: 256, preload: true,
		step: (*caller).stepGuarded,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bulkPad is the bulk-call argument size: below wire's 64 KiB pooled
// buffer cut-off, so the payload buffer is still recycled.
const bulkPad = 16 << 10

// caller is one closed-loop client goroutine's state. It owns a stripe
// of keys nobody else writes, so it can predict every reply.
type caller struct {
	p   core.Proxy
	rng *rand.Rand
	// session is the caller's own exactly-once identity (guarded-write).
	// The runtime would mint one per process, shared by its callers; with
	// two callers a writer held up while the other commits a window's
	// worth of replies (64) finds its sequence number expired — seen a
	// few times per 100 k writes with both halves in one process. A
	// workload must not fail, so a caller is its own session, one write
	// in flight, however many callers a workload has.
	session *session.Minter
	keys    []string
	vals    []int64 // ledger: the value the daemon must hold for keys[i]
	pad     string

	// dry skips verification: the harness-allocation calibration runs the
	// same steps against a proxy that does nothing.
	dry bool

	// replay, when >= 0, is the key index whose last incr the next step
	// sends again under the same session identity.
	replay               int
	replaySID, replaySeq uint64
	replays              uint64 // replays sent so far

	attempted, failed uint64
	firstErr          string

	// op numbers this caller's invocations for the traced run's taps.
	op *atomic.Int64
}

// newCaller builds the caller that owns the given stripe of keys. Keys
// are 8 bytes: one letter naming the stripe (the traced run's taps read
// it back), then digits.
func newCaller(w workload, stripe int, seed int64, p core.Proxy) *caller {
	c := &caller{
		p:       p,
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(stripe))),
		session: session.NewMinter(),
		keys:    make([]string, w.keys),
		vals:    make([]int64, w.keys),
		replay:  -1,
		op:      new(atomic.Int64),
	}
	tag := stripeTag(stripe)
	for i := range c.keys {
		c.keys[i] = fmt.Sprintf("%c%07d", tag, i)
	}
	c.pad = string(tag) + strings.Repeat("x", bulkPad-1)
	return c
}

// stripeTag and stripeOf map a caller's stripe number to the first byte
// of its keys and back.
func stripeTag(stripe int) byte { return byte('A' + stripe) }
func stripeOf(key string) int   { return int(key[0] - 'A') }

// maxStripes bounds stripe numbers so that tags stay printable ASCII.
const maxStripes = 58

// load puts a seed-derived value under every key of the stripe. The
// values are large on purpose, and counters start from them: Go boxes an
// integer below 256 without allocating, so a store of small numbers would
// make allocations per invocation depend on how long the run has counted.
func (c *caller) load(ctx context.Context) error {
	for i, k := range c.keys {
		v := c.rng.Int63n(1 << 40)
		res, err := c.p.Invoke(ctx, "put", k, v)
		if err != nil {
			return fmt.Errorf("preload put %s: %w", k, err)
		}
		if len(res) != 1 || res[0] != any(v) {
			return fmt.Errorf("preload put %s: got %v, want %d", k, res, v)
		}
		c.vals[i] = v
	}
	return nil
}

// sum is the total the daemon's sum() must report for this stripe.
func (c *caller) sum() int64 {
	var t int64
	for _, v := range c.vals {
		t += v
	}
	return t
}

// check counts one invocation and verifies it returned exactly want.
func (c *caller) check(method string, res []any, err error, want ...any) bool {
	c.attempted++
	if c.dry {
		return true
	}
	ok := err == nil && len(res) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = res[i] == want[i]
	}
	if !ok {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("%s: got %v, %v; want %v", method, res, err, want)
		}
	}
	return ok
}

func (c *caller) stepGet() bool {
	i := c.rng.Intn(len(c.keys))
	res, err := c.p.Invoke(context.Background(), "get", c.keys[i])
	return c.check("get", res, err, c.vals[i])
}

func (c *caller) stepBulk() bool {
	res, err := c.p.Invoke(context.Background(), "noop", c.pad)
	return c.check("noop", res, err)
}

func (c *caller) stepMix() bool {
	i := c.rng.Intn(len(c.keys))
	if c.rng.Intn(2) == 0 {
		res, err := c.p.Invoke(context.Background(), "get", c.keys[i])
		return c.check("get", res, err, c.vals[i])
	}
	v := c.rng.Int63n(1 << 40)
	res, err := c.p.Invoke(context.Background(), "put", c.keys[i], v)
	if err == nil {
		c.vals[i] = v
	}
	return c.check("put", res, err, v)
}

func (c *caller) stepGuarded() bool {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if i := c.replay; i >= 0 {
		// The write just acknowledged goes out again under its identity:
		// the daemon must answer from its dedup table with the value it
		// cached, and must not apply the increment a second time.
		c.replay = -1
		c.replays++
		res, err := c.p.Invoke(core.ContextWithSession(ctx, c.replaySID, c.replaySeq), "incr", c.keys[i])
		return c.check("incr(replay)", res, err, c.vals[i])
	}
	i := c.rng.Intn(len(c.keys))
	if c.rng.Intn(2) == 0 {
		res, err := c.p.Invoke(core.WithPriority(ctx, wire.PriorityLow), "get", c.keys[i])
		return c.check("get", res, err, c.vals[i])
	}
	sid, seq := c.session.Next()
	if c.rng.Intn(100) == 0 {
		c.replay, c.replaySID, c.replaySeq = i, sid, seq
	}
	res, err := c.p.Invoke(core.ContextWithSession(ctx, sid, seq), "incr", c.keys[i])
	if err == nil {
		c.vals[i]++
	}
	return c.check("incr", res, err, c.vals[i])
}

// discardProxy does nothing: steps run against it measure what the
// harness itself allocates per invocation.
type discardProxy struct{ core.Proxy }

func (discardProxy) Invoke(context.Context, string, ...any) ([]any, error) { return nil, nil }

// auditSum asks the service for sum() and compares it with the callers'
// ledgers: a lost, duplicated or misapplied write anywhere in the run
// shows here even if every individual reply looked right.
func auditSum(ctx context.Context, kv core.Proxy, callers []*caller) error {
	var want int64
	for _, c := range callers {
		want += c.sum()
	}
	res, err := kv.Invoke(ctx, "sum")
	if err != nil {
		return fmt.Errorf("audit sum(): %w", err)
	}
	if len(res) != 1 || res[0] != any(want) {
		return fmt.Errorf("audit: daemon sum() = %v, ledgers say %d", res, want)
	}
	return nil
}
