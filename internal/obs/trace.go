package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// The causal-tracing half of the observability layer. A trace id is minted
// at the outermost client stub and carried across every context boundary
// in the request frame's envelope (wire.Envelope.Trace, Span); each hop
// (stub invocation, rpc attempt, server dispatch, smart-proxy fan-out)
// records a span naming its parent, so a multi-hop chain reconstructs as
// one tree.

// TraceID identifies one causal chain of invocations.
type TraceID uint64

// SpanID identifies one hop within a trace.
type SpanID uint64

// String renders the id as fixed-width hex (the form proxyctl accepts).
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the id as fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// SpanContext is the propagated part of a span: which trace this work
// belongs to and which span caused it. The zero value means "untraced".
// Between nodes it rides the request frame's envelope
// (wire.Envelope.Trace and Span).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span context for downstream hops to parent
// their spans under.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext extracts the active span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Trace != 0
}

// Span is one recorded hop: a named piece of work in one context,
// parented under the hop that caused it. Parent is zero for trace roots.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string // e.g. "invoke:get", "serve:put", "rpc:attempt#2"
	Where  string // context address the work ran in
	Start  time.Time
	Dur    time.Duration
	Err    string // empty on success
}

// Tracer mints span ids and keeps a bounded ring of finished spans. Ids
// are drawn from a per-tracer random seed mixed through splitmix64, so
// tracers in different processes mint disjoint ids and their spans can be
// merged into one tree. A nil *Tracer is valid and records nothing.
type Tracer struct {
	seed uint64
	ctr  atomic.Uint64

	mu   sync.Mutex
	ring []Span
	next int
	n    int
}

// DefaultTraceCapacity is the span-ring size NewTracer uses.
const DefaultTraceCapacity = 4096

// NewTracer builds a tracer retaining up to capacity finished spans
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{ring: make([]Span, capacity)}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		t.seed = binary.BigEndian.Uint64(b[:])
	}
	return t
}

// NewSpanID mints a fresh id (unique within this tracer, collision-free
// across tracers with overwhelming probability).
func (t *Tracer) NewSpanID() SpanID {
	x := t.seed + t.ctr.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return SpanID(x)
}

// noopFinish is returned when no span is started, so untraced hot paths
// do not allocate a closure per call.
var noopFinish = func(error) {}

// StartChild begins a span named kind+method only when ctx already
// carries a trace; otherwise it is a no-op returning ctx unchanged.
// Mid-chain hops (stubs, smart proxies) use this, so tracing costs nothing
// until a caller opts in by opening a root span with StartSpan — not even
// the name: the two halves are joined after the trace is found, because
// joining them at the call site is a heap allocation per untraced call.
// A span with a constant name passes it as kind and leaves method empty.
func (t *Tracer) StartChild(ctx context.Context, kind, method, where string) (context.Context, func(err error)) {
	if t == nil {
		return ctx, noopFinish
	}
	if _, ok := SpanFromContext(ctx); !ok {
		return ctx, noopFinish
	}
	return t.StartSpan(ctx, kind+method, where)
}

// StartSpan begins a span named name in location where, parented under
// the span already in ctx (a fresh trace is minted when there is none —
// this is how a client opens the root of a new trace). It returns the
// derived context carrying the new span and a finish function that
// records the span; call finish exactly once. A nil tracer returns ctx
// unchanged and a no-op finish.
func (t *Tracer) StartSpan(ctx context.Context, name, where string) (context.Context, func(err error)) {
	if t == nil {
		return ctx, noopFinish
	}
	parent, _ := SpanFromContext(ctx)
	sc := SpanContext{Trace: parent.Trace, Span: t.NewSpanID()}
	if sc.Trace == 0 {
		sc.Trace = TraceID(t.NewSpanID())
	}
	start := time.Now()
	nctx := ContextWithSpan(ctx, sc)
	return nctx, func(err error) {
		sp := Span{
			Trace:  sc.Trace,
			ID:     sc.Span,
			Parent: parent.Span,
			Name:   name,
			Where:  where,
			Start:  start,
			Dur:    time.Since(start),
		}
		if err != nil {
			sp.Err = err.Error()
		}
		t.Record(sp)
	}
}

// Record stores a finished span, evicting the oldest when full. Nil-safe.
func (t *Tracer) Record(sp Span) {
	if t == nil || len(t.ring) == 0 {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = sp
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// all returns retained spans, oldest first.
func (t *Tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Spans returns the retained spans of one trace, in recording order.
func (t *Tracer) Spans(id TraceID) []Span {
	var out []Span
	for _, sp := range t.all() {
		if sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}

// TraceSummary describes one trace retained in the ring.
type TraceSummary struct {
	Trace TraceID
	Spans int
	Root  string // name of the root span, if retained
	Start time.Time
}

// Recent summarises the most recently recorded traces, newest first,
// up to limit (unlimited if limit <= 0).
func (t *Tracer) Recent(limit int) []TraceSummary {
	all := t.all()
	byID := make(map[TraceID]*TraceSummary)
	order := make([]TraceID, 0, 16)
	for _, sp := range all {
		s, ok := byID[sp.Trace]
		if !ok {
			s = &TraceSummary{Trace: sp.Trace, Start: sp.Start}
			byID[sp.Trace] = s
			order = append(order, sp.Trace)
		}
		s.Spans++
		if sp.Parent == 0 {
			s.Root = sp.Name
		}
		if sp.Start.Before(s.Start) {
			s.Start = sp.Start
		}
	}
	out := make([]TraceSummary, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		out = append(out, *byID[order[i]])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// EncodeSpans serialises spans for transport (the obs service's "trace"
// method returns this form so proxyctl can merge daemon spans with its
// own).
func EncodeSpans(spans []Span) []byte {
	buf := wire.AppendUvarint(nil, uint64(len(spans)))
	for _, sp := range spans {
		buf = wire.AppendUvarint(buf, uint64(sp.Trace))
		buf = wire.AppendUvarint(buf, uint64(sp.ID))
		buf = wire.AppendUvarint(buf, uint64(sp.Parent))
		buf = wire.AppendString(buf, sp.Name)
		buf = wire.AppendString(buf, sp.Where)
		buf = wire.AppendVarint(buf, sp.Start.UnixNano())
		buf = wire.AppendVarint(buf, int64(sp.Dur))
		buf = wire.AppendString(buf, sp.Err)
	}
	return buf
}

// DecodeSpans inverts EncodeSpans.
func DecodeSpans(buf []byte) ([]Span, error) {
	count, n, err := wire.Uvarint(buf)
	if err != nil {
		return nil, fmt.Errorf("obs: decode spans: %w", err)
	}
	buf = buf[n:]
	if count > uint64(len(buf)) { // each span is at least several bytes
		return nil, fmt.Errorf("obs: span count %d exceeds payload", count)
	}
	out := make([]Span, 0, count)
	for i := uint64(0); i < count; i++ {
		var sp Span
		fields := []func([]byte) (int, error){
			func(b []byte) (int, error) { v, n, err := wire.Uvarint(b); sp.Trace = TraceID(v); return n, err },
			func(b []byte) (int, error) { v, n, err := wire.Uvarint(b); sp.ID = SpanID(v); return n, err },
			func(b []byte) (int, error) { v, n, err := wire.Uvarint(b); sp.Parent = SpanID(v); return n, err },
			func(b []byte) (int, error) { v, n, err := wire.String(b); sp.Name = v; return n, err },
			func(b []byte) (int, error) { v, n, err := wire.String(b); sp.Where = v; return n, err },
			func(b []byte) (int, error) { v, n, err := wire.Varint(b); sp.Start = time.Unix(0, v); return n, err },
			func(b []byte) (int, error) { v, n, err := wire.Varint(b); sp.Dur = time.Duration(v); return n, err },
			func(b []byte) (int, error) { v, n, err := wire.String(b); sp.Err = v; return n, err },
		}
		for _, f := range fields {
			n, err := f(buf)
			if err != nil {
				return nil, fmt.Errorf("obs: decode span %d: %w", i, err)
			}
			buf = buf[n:]
		}
		out = append(out, sp)
	}
	return out, nil
}

// FormatTrace renders spans of one trace as an indented tree, children
// ordered by start time. Spans whose parent is missing from the set
// (evicted from the ring, or recorded by an unreachable context) are
// rendered as extra roots, so partial traces still display.
func FormatTrace(w io.Writer, spans []Span) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	fmt.Fprintf(w, "trace %s (%d spans)\n", spans[0].Trace, len(spans))
	have := make(map[SpanID]bool, len(spans))
	for _, sp := range spans {
		have[sp.ID] = true
	}
	children := make(map[SpanID][]Span)
	var roots []Span
	for _, sp := range spans {
		if sp.Parent != 0 && have[sp.Parent] && sp.Parent != sp.ID {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(s []Span) {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	byStart(roots)
	for k := range children {
		byStart(children[k])
	}
	var render func(sp Span, depth int, seen map[SpanID]bool)
	render = func(sp Span, depth int, seen map[SpanID]bool) {
		if seen[sp.ID] {
			return
		}
		seen[sp.ID] = true
		for i := 0; i < depth; i++ {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "└─ %s @%s %v", sp.Name, sp.Where, sp.Dur)
		if sp.Err != "" {
			fmt.Fprintf(w, " err=%q", sp.Err)
		}
		fmt.Fprintln(w)
		for _, ch := range children[sp.ID] {
			render(ch, depth+1, seen)
		}
	}
	seen := make(map[SpanID]bool, len(spans))
	for _, r := range roots {
		render(r, 1, seen)
	}
}
