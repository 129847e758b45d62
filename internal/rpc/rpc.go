// Package rpc implements the classic remote-procedure-call baseline the
// proxy principle is positioned against, and the reliability machinery
// smart proxies reuse: client-side retransmission under a stable request
// id, every re-send flagged, and a server adapter that runs a handler and
// answers it. Duplicate suppression is not this layer's: the kernel looks
// every request up in the hosting node's session.Table before dispatch,
// so a retransmission is answered, dropped or refused there and never
// runs twice (at-most-once execution semantics in the style of Birrell &
// Nelson).
//
// The layer is payload-agnostic: it moves opaque bytes (the envelope is a
// frame field beside them). Invocation marshalling lives above it, and
// service-private proxy protocols ride the same machinery with custom kinds.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/wire"
)

// Errors returned by the rpc layer.
var (
	// ErrTooManyRetries reports that every transmission attempt went
	// unanswered within the caller's deadline budget.
	ErrTooManyRetries = errors.New("rpc: retries exhausted")
	// ErrRetryBudget reports that a retransmission was due but the
	// destination's retry budget (WithRetryBudget) was exhausted: the
	// call fails instead of joining a retry storm. It wraps
	// ErrTooManyRetries so failure classification (breakers, failover)
	// treats both the same way — the request went unanswered and may
	// or may not have executed.
	ErrRetryBudget = fmt.Errorf("%w (retry budget exhausted)", ErrTooManyRetries)
	// ErrDeadlineBudget reports that the next scheduled retransmission
	// would fire after the caller's ctx deadline: there is no point
	// sleeping toward a wait we cannot complete, so the call fails fast
	// with the retry error instead of burning the remaining budget
	// asleep (a failover-capable caller can spend it on an alternate).
	// It wraps ErrTooManyRetries for the same classification reasons.
	ErrDeadlineBudget = fmt.Errorf("%w (backoff exceeds deadline budget)", ErrTooManyRetries)
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetryInterval replaces the default policy with a fixed, unjittered
// retransmission interval d, so callers that reason about exact
// retransmit counts stay deterministic.
func WithRetryInterval(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.retryEvery = d
			c.backoffFactor, c.backoffMax, c.jitter = 0, 0, false
		}
	}
}

// WithMaxAttempts bounds total transmissions of one request (default 8;
// minimum 1).
func WithMaxAttempts(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.maxAttempts = n
		}
	}
}

// WithObserver routes the client's counters into a shared observability
// sink and enables per-attempt trace spans. By default each client gets a
// private observer (counters still work, spans go to a private ring).
func WithObserver(o *obs.Observer) ClientOption {
	return func(c *Client) {
		if o != nil {
			c.obs = o
		}
	}
}

// WithRetryBudget caps this client's retransmission ratio per
// destination node: every fresh call deposits ratio tokens, every
// retransmission spends one, and a retransmission due with an empty
// bucket fails the call with ErrRetryBudget instead of transmitting.
// Non-positive arguments select the defaults (ratio 0.1, burst 10).
// Budgets are off by default: protocols that deliberately ride out long
// outages with sustained retransmission (replica repair, chaos
// harnesses) must keep them off, and deployments that want storm
// protection opt in (proxyd -overload does).
func WithRetryBudget(ratio, burst float64) ClientOption {
	return func(c *Client) { c.budget = overload.NewBudget(ratio, burst) }
}

// ClientStats counts client activity (read with Stats). It is a snapshot
// of the client's counters in the obs registry, kept as a struct so
// existing callers and tests read it unchanged.
type ClientStats struct {
	Calls       uint64
	Retransmits uint64
	Failures    uint64
	// BudgetDenied counts calls that failed with ErrRetryBudget: a
	// retransmission was due but the destination's retry budget was dry.
	BudgetDenied uint64
	// DeadlineFast counts calls that failed with ErrDeadlineBudget: the
	// next backoff would have slept past the caller's deadline.
	DeadlineFast uint64
}

// Client issues reliable request/reply calls out of one context. The zero
// value is unusable; construct with NewClient. Safe for concurrent use.
type Client struct {
	ktx           *kernel.Context
	retryEvery    time.Duration
	maxAttempts   int
	backoffFactor float64
	backoffMax    time.Duration
	jitter        bool

	budget *overload.Budget // nil unless WithRetryBudget

	obs   *obs.Observer
	where string
	// Registry-backed counters, resolved once at construction. Names are
	// scoped by the client's context address so clients sharing a cluster
	// registry stay distinguishable.
	calls        *obs.Counter
	retransmits  *obs.Counter
	failures     *obs.Counter
	budgetDenied *obs.Counter
	deadlineFast *obs.Counter
}

// NewClient builds a client over a kernel context. The default retry
// policy is jittered exponential backoff (base 50 ms, factor 2, cap 2 s):
// a fleet of clients retrying a recovering node in lockstep is itself a
// failure mode. Each jittered wait is drawn uniformly from
// [interval/2, interval] — spread enough to decorrelate retry storms, and
// never so short that a healthy peer is retransmitted at before it had
// the time to answer. WithRetryInterval selects a fixed deterministic
// interval instead.
func NewClient(ktx *kernel.Context, opts ...ClientOption) *Client {
	c := &Client{
		ktx:           ktx,
		retryEvery:    50 * time.Millisecond,
		maxAttempts:   8,
		backoffFactor: 2,
		backoffMax:    2 * time.Second,
		jitter:        true,
	}
	for _, o := range opts {
		o(c)
	}
	if c.obs == nil {
		c.obs = obs.NewObserver()
	}
	c.where = ktx.Addr().String()
	scope := "rpc.client[" + c.where + "]."
	c.calls = c.obs.Registry.Counter(scope + "calls")
	c.retransmits = c.obs.Registry.Counter(scope + "retransmits")
	c.failures = c.obs.Registry.Counter(scope + "failures")
	c.budgetDenied = c.obs.Registry.Counter(scope + "budget.denied")
	c.deadlineFast = c.obs.Registry.Counter(scope + "deadline.fastfail")
	if b := c.budget; b != nil {
		// Token levels are computed gauges: the budget already owns the
		// numbers, the registry just reads them at snapshot time. The
		// minimum across destinations is the one to alert on — it is the
		// destination closest to tripping ErrRetryBudget.
		c.obs.Registry.GaugeFunc(scope+"budget.tokens.min", func() string {
			tokens, _ := b.Poorest()
			return strconv.FormatFloat(tokens, 'f', 2, 64)
		})
		c.obs.Registry.GaugeFunc(scope+"budget.dests", func() string {
			_, dests := b.Poorest()
			return strconv.Itoa(dests)
		})
	}
	return c
}

// Context exposes the underlying kernel context (for layers that need to
// send unreliable one-ways alongside reliable calls).
func (c *Client) Context() *kernel.Context { return c.ktx }

// Observer exposes the client's observability sink (never nil).
func (c *Client) Observer() *obs.Observer { return c.obs }

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:        c.calls.Load(),
		Retransmits:  c.retransmits.Load(),
		Failures:     c.failures.Load(),
		BudgetDenied: c.budgetDenied.Load(),
		DeadlineFast: c.deadlineFast.Load(),
	}
}

// attemptRecorder records one trace span per transmission attempt of a
// call. It exists (instead of a closure) so untraced calls — rec == nil,
// every method a no-op — pay no allocation; it is per-call state and not
// safe for concurrent use.
type attemptRecorder struct {
	c     *Client
	sc    obs.SpanContext
	start time.Time
}

// end closes the current attempt's span; attempt is its 1-based ordinal.
func (a *attemptRecorder) end(attempt int, errText string) {
	if a == nil {
		return
	}
	tr := a.c.obs.Tracer
	tr.Record(obs.Span{
		Trace: a.sc.Trace, ID: tr.NewSpanID(), Parent: a.sc.Span,
		Name: fmt.Sprintf("rpc:attempt#%d", attempt), Where: a.c.where,
		Start: a.start, Dur: time.Since(a.start), Err: errText,
	})
	a.start = time.Now()
}

// sleepFor resolves one retransmit wait from the current base interval:
// the interval itself when deterministic, or a draw from
// [interval/2, interval] when jitter is on.
func (c *Client) sleepFor(interval time.Duration) time.Duration {
	if !c.jitter || interval <= 0 {
		return interval
	}
	half := interval / 2
	return half + time.Duration(rand.Int63n(int64(interval-half)+1))
}

// Call sends payload to the object at dst and waits for the response,
// retransmitting under the same request id until an answer arrives, the
// ctx expires, or attempts run out. kind is usually wire.KindRequest but
// may be any kind (service-private protocols included). A KindError
// response surfaces as *kernel.RemoteError.
func (c *Client) Call(ctx context.Context, dst wire.ObjAddr, kind wire.Kind, payload []byte) ([]byte, error) {
	f, err := c.CallFrame(ctx, dst, kind, payload)
	if err != nil {
		return nil, err
	}
	return f.Payload, nil
}

// CallFrame is Call returning the whole response frame (needed when the
// response kind itself is meaningful, as in private proxy protocols).
func (c *Client) CallFrame(ctx context.Context, dst wire.ObjAddr, kind wire.Kind, payload []byte) (*wire.Frame, error) {
	return c.CallEnvelope(ctx, dst, kind, wire.Envelope{}, payload)
}

// CallEnvelope is CallFrame with an envelope on the request: the same on
// every transmission, but for a budget, which a re-send refreshes from ctx.
func (c *Client) CallEnvelope(ctx context.Context, dst wire.ObjAddr, kind wire.Kind, env wire.Envelope, payload []byte) (*wire.Frame, error) {
	c.calls.Inc()
	if c.budget != nil {
		c.budget.Deposit(dst.Addr.Node)
	}
	id, ch, err := c.ktx.NewPending()
	if err != nil {
		return nil, err
	}
	defer c.ktx.CancelPending(id, ch)

	// When the caller's ctx carries a span, every transmission attempt is
	// recorded as its own span under it — a retransmission storm shows as
	// a fan of sibling attempts. Untraced calls keep a nil recorder.
	attempts := 1
	var rec *attemptRecorder
	if sc, traced := obs.SpanFromContext(ctx); traced {
		rec = &attemptRecorder{c: c, sc: sc, start: time.Now()}
	}

	// The request frame is pooled: transports copy it before Send
	// returns, and the deferred Release runs only after the last
	// (re)transmission, so recycling is safe.
	req := wire.GetFrame()
	defer req.Release()
	req.Kind = kind
	req.ReqID = id
	req.Dst = dst.Addr
	req.Object = dst.Object
	req.Envelope = env
	req.Payload = payload
	if err := c.ktx.Send(req); err != nil {
		c.failures.Inc()
		rec.end(attempts, err.Error())
		return nil, err
	}

	interval := c.retryEvery
	timer := getTimer(c.sleepFor(interval))
	defer putTimer(timer)
	for {
		select {
		case resp := <-ch:
			if resp == nil {
				c.failures.Inc()
				rec.end(attempts, kernel.ErrClosed.Error())
				return nil, kernel.ErrClosed
			}
			if resp.Kind == wire.KindError {
				rec.end(attempts, "remote error")
				return nil, kernel.RemoteErrorFrom(resp)
			}
			rec.end(attempts, "")
			return resp, nil
		case <-ctx.Done():
			c.failures.Inc()
			rec.end(attempts, ctx.Err().Error())
			return nil, ctx.Err()
		case <-timer.C:
			if attempts >= c.maxAttempts {
				c.failures.Inc()
				rec.end(attempts, ErrTooManyRetries.Error())
				return nil, ErrTooManyRetries
			}
			// The next wait this retry would schedule (backoff applied).
			next := interval
			if c.backoffFactor > 1 {
				next = time.Duration(float64(next) * c.backoffFactor)
				if c.backoffMax > 0 && next > c.backoffMax {
					next = c.backoffMax
				}
			}
			wait := c.sleepFor(next)
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= wait {
				// The retry's backoff delay exceeds the remaining deadline
				// budget: scheduling it means sleeping straight into the
				// deadline. Fail fast with the retry error instead — a
				// failover-capable caller can spend what budget remains on
				// an alternate binding rather than on a doomed sleep.
				c.deadlineFast.Inc()
				c.failures.Inc()
				rec.end(attempts, ErrDeadlineBudget.Error())
				return nil, ErrDeadlineBudget
			}
			if c.budget != nil && !c.budget.Spend(dst.Addr.Node) {
				// Retransmission due, but this destination's retry budget
				// is spent: failing here is what keeps a fleet of clients
				// from amplifying an outage into a retry storm.
				c.budgetDenied.Inc()
				c.failures.Inc()
				rec.end(attempts, ErrRetryBudget.Error())
				return nil, ErrRetryBudget
			}
			rec.end(attempts, "no reply (retransmitting)")
			attempts++
			c.retransmits.Inc()
			req.Flags |= wire.FlagRetransmit
			if dl, ok := ctx.Deadline(); ok && env.Budget > 0 {
				// What remains now, not the stale figure from when the call
				// began; never zero, which would read as "no deadline".
				req.Envelope.Budget = max(time.Until(dl), time.Nanosecond)
			}
			if err := c.ktx.Send(req); err != nil {
				c.failures.Inc()
				rec.end(attempts, err.Error())
				return nil, err
			}
			interval = next
			timer.Reset(wait)
		}
	}
}

// timerPool recycles retransmission timers: every call needs one, and a
// timer costs two allocations.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// getTimer returns a pooled timer armed for d.
func getTimer(d time.Duration) *time.Timer {
	t := timerPool.Get().(*time.Timer)
	// The pooled timer is stopped with a drained channel (putTimer
	// guarantees it), so Reset is safe.
	t.Reset(d)
	return t
}

// putTimer stops and drains a timer so it can be pooled. Callers must
// no longer be selecting on t.C.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}
