package obs

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// spanEnvelope is how a span context crosses the wire: the trace fields
// of the request frame's envelope.
func spanEnvelope(sc SpanContext) wire.Envelope {
	return wire.Envelope{Trace: uint64(sc.Trace), Span: uint64(sc.Span)}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: 0xDEADBEEF, Span: 42}
	body := []byte{9, 1, 2, 3} // a plausible codec list payload
	wireForm := append(spanEnvelope(sc).Append(nil), body...)
	got, rest, err := wire.ParseEnvelope(wireForm)
	if err != nil || got != spanEnvelope(sc) {
		t.Fatalf("decoded (%+v, %v), want %+v", got, err, sc)
	}
	if string(rest) != string(body) {
		t.Fatalf("rest = %v, want %v", rest, body)
	}
}

func TestSpanHeaderHeaderless(t *testing.T) {
	// Bytes that open with a codec tag (1..13) hold no trace field.
	body := []byte{9, 3, 4, 104, 105}
	e, rest, err := wire.ParseEnvelope(body)
	if err != nil || e.Trace != 0 || e.Span != 0 {
		t.Fatalf("headerless bytes produced (%+v, %v)", e, err)
	}
	if &rest[0] != &body[0] || len(rest) != len(body) {
		t.Fatal("headerless bytes must pass through unmodified")
	}
	// Zero span context appends nothing.
	if out := spanEnvelope(SpanContext{}).Append(nil); len(out) != 0 {
		t.Fatalf("zero span context appended %d bytes", len(out))
	}
	// Empty bytes pass through; a truncated field is rejected whole.
	if _, rest, err := wire.ParseEnvelope(nil); rest != nil || err != nil {
		t.Fatal("nil bytes must pass through")
	}
	trunc := []byte{0xF5, 0x80}
	if e, rest, err := wire.ParseEnvelope(trunc); err == nil || e.Trace != 0 || len(rest) != len(trunc) {
		t.Fatal("truncated trace field must be rejected with nothing consumed")
	}
}

func TestTraceIDParse(t *testing.T) {
	id := TraceID(0x0123456789ABCDEF)
	back, err := ParseTraceID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", id.String(), back, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("want error for bad trace id")
	}
	if s := SpanID(1).String(); len(s) != 16 {
		t.Fatalf("span id string %q, want 16 hex chars", s)
	}
}

func TestStartSpanParenting(t *testing.T) {
	tr := NewTracer(16)
	ctx, finishRoot := tr.StartSpan(context.Background(), "root", "1.1")
	rootSC, ok := SpanFromContext(ctx)
	if !ok || rootSC.Trace == 0 || rootSC.Span == 0 {
		t.Fatalf("root span context = %+v", rootSC)
	}
	ctx2, finishChild := tr.StartSpan(ctx, "child", "2.1")
	childSC, _ := SpanFromContext(ctx2)
	if childSC.Trace != rootSC.Trace {
		t.Fatal("child must inherit the trace id")
	}
	if childSC.Span == rootSC.Span {
		t.Fatal("child must mint a fresh span id")
	}
	finishChild(context.DeadlineExceeded)
	finishRoot(nil)

	spans := tr.Spans(rootSC.Trace)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["child"].Parent != rootSC.Span {
		t.Fatalf("child parent = %v, want %v", byName["child"].Parent, rootSC.Span)
	}
	if byName["root"].Parent != 0 {
		t.Fatalf("root parent = %v, want 0", byName["root"].Parent)
	}
	if byName["child"].Err == "" {
		t.Fatal("child error not recorded")
	}

	// StartChild without an active trace: no-op, nothing recorded.
	nctx2, finishIdle := tr.StartChild(context.Background(), "idle:", "get", "1.1")
	if _, ok := SpanFromContext(nctx2); ok {
		t.Fatal("StartChild must not mint a trace on an untraced ctx")
	}
	finishIdle(nil)
	if got := len(tr.Spans(rootSC.Trace)); got != 2 {
		t.Fatalf("idle StartChild recorded a span: %d spans", got)
	}
	// StartChild under an active trace behaves like StartSpan.
	cctx, finishC := tr.StartChild(ctx, "child2:", "get", "3.1")
	csc, ok := SpanFromContext(cctx)
	if !ok || csc.Trace != rootSC.Trace || csc.Span == rootSC.Span {
		t.Fatalf("StartChild context = %+v", csc)
	}
	finishC(nil)
	named := false
	for _, sp := range tr.Spans(rootSC.Trace) {
		named = named || sp.Name == "child2:get"
	}
	if !named {
		t.Fatal("StartChild span is not named kind+method")
	}
	// The name is joined only under a trace: an untraced hop allocates nothing.
	method := string([]byte("get")) // not a constant the compiler could fold
	if n := testing.AllocsPerRun(100, func() {
		_, fin := tr.StartChild(context.Background(), "idle:", method, "1.1")
		fin(nil)
	}); n != 0 {
		t.Fatalf("untraced StartChild allocates %v times per call, want 0", n)
	}

	// Nil tracer: no-ops all the way down.
	var nilT *Tracer
	nctx, finish := nilT.StartSpan(context.Background(), "x", "y")
	finish(nil)
	_, nfinish := nilT.StartChild(context.Background(), "x", "", "y")
	nfinish(nil)
	nilT.Record(Span{})
	if _, ok := SpanFromContext(nctx); ok {
		t.Fatal("nil tracer must not attach spans")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Trace: 1, ID: SpanID(i + 1)})
	}
	spans := tr.Spans(1)
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if spans[0].ID != 7 || spans[3].ID != 10 {
		t.Fatalf("ring kept %v..%v, want 7..10", spans[0].ID, spans[3].ID)
	}
}

func TestTracerIDsDistinct(t *testing.T) {
	a, b := NewTracer(1), NewTracer(1)
	seen := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		for _, tr := range []*Tracer{a, b} {
			id := tr.NewSpanID()
			if id == 0 || seen[id] {
				t.Fatalf("duplicate or zero span id %v", id)
			}
			seen[id] = true
		}
	}
}

func TestRecent(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{Trace: 1, ID: 1, Name: "first-root"})
	tr.Record(Span{Trace: 1, ID: 2, Parent: 1, Name: "first-child"})
	tr.Record(Span{Trace: 2, ID: 3, Name: "second-root"})
	rec := tr.Recent(10)
	if len(rec) != 2 {
		t.Fatalf("got %d traces, want 2", len(rec))
	}
	if rec[0].Trace != 2 || rec[0].Root != "second-root" {
		t.Fatalf("newest first: got %+v", rec[0])
	}
	if rec[1].Spans != 2 {
		t.Fatalf("trace 1 spans = %d, want 2", rec[1].Spans)
	}
	if got := tr.Recent(1); len(got) != 1 {
		t.Fatalf("limit 1 returned %d", len(got))
	}
}

func TestEncodeDecodeSpans(t *testing.T) {
	in := []Span{
		{Trace: 7, ID: 8, Parent: 0, Name: "root", Where: "1.1", Start: time.Unix(0, 12345), Dur: 3 * time.Millisecond},
		{Trace: 7, ID: 9, Parent: 8, Name: "child", Where: "2.1", Start: time.Unix(0, 23456), Dur: time.Millisecond, Err: "boom"},
	}
	out, err := DecodeSpans(EncodeSpans(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if !out[i].Start.Equal(in[i].Start) {
			t.Fatalf("span %d start %v != %v", i, out[i].Start, in[i].Start)
		}
		out[i].Start = in[i].Start
		if out[i] != in[i] {
			t.Fatalf("span %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if _, err := DecodeSpans([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("want error for garbage input")
	}
	if _, err := DecodeSpans([]byte{2, 1}); err == nil {
		t.Fatal("want error for truncated input")
	}
}

func TestFormatTrace(t *testing.T) {
	base := time.Unix(0, 0)
	spans := []Span{
		{Trace: 5, ID: 1, Name: "invoke:get", Where: "3.1", Start: base, Dur: time.Millisecond},
		{Trace: 5, ID: 2, Parent: 1, Name: "serve:get", Where: "1.1", Start: base.Add(time.Microsecond)},
		{Trace: 5, ID: 3, Parent: 99, Name: "orphan", Where: "2.1", Start: base.Add(2 * time.Microsecond), Err: "lost parent"},
	}
	var b strings.Builder
	FormatTrace(&b, spans)
	out := b.String()
	for _, want := range []string{"trace 0000000000000005 (3 spans)", "invoke:get", "serve:get", "orphan", `err="lost parent"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// serve:get must be indented under invoke:get.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "serve:get") && !strings.HasPrefix(line, "    ") {
			t.Fatalf("child not indented: %q", line)
		}
	}
	var empty strings.Builder
	FormatTrace(&empty, nil)
	if !strings.Contains(empty.String(), "no spans") {
		t.Fatalf("empty render = %q", empty.String())
	}
}
