package obs

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// Fuzz entry point for the trace fields (0xF5) of the request envelope:
// what carries a SpanContext between nodes. The parser itself lives in
// internal/wire and is fuzzed there against every field; this target
// keeps the trace-only corpus and checks what obs relies on: never
// panic, consume nothing from bytes that are rejected, and parse any
// accepted span context back to the values that re-encode it. Run with
// e.g.
//
//	go test -fuzz=FuzzSplitSpanHeader -fuzztime=30s ./internal/obs
func FuzzSplitSpanHeader(f *testing.F) {
	good := spanEnvelope(SpanContext{Trace: 0x0102, Span: 0x77}).Append(nil)
	good = append(good, "body"...)
	f.Add(good)
	f.Add([]byte{0xF5})                     // magic alone
	f.Add([]byte{0xF5, 0x85})               // truncated trace uvarint
	f.Add([]byte{0xF4, 'j', 'u', 'n', 'k'}) // end mark, then the body
	f.Add([]byte("headerless payload"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, rest, err := wire.ParseEnvelope(data)
		if len(rest) > len(data) || (len(rest) > 0 && !bytes.HasSuffix(data, rest)) {
			t.Fatalf("rest is not a suffix of the input (%d of %d bytes)", len(rest), len(data))
		}
		if err != nil {
			if e != (wire.Envelope{}) || len(rest) != len(data) {
				t.Fatalf("rejection consumed input: (%+v, %d of %d bytes)", e, len(rest), len(data))
			}
			return
		}
		sc := SpanContext{Trace: TraceID(e.Trace), Span: SpanID(e.Span)}
		if sc.Trace == 0 {
			// A zero trace id cannot re-encode (zero means "untraced"),
			// but a non-minimal uvarint may still have been consumed.
			return
		}
		// Uvarint fields admit non-minimal encodings, so compare the
		// re-parse rather than the bytes.
		e2, _, err := wire.ParseEnvelope(append(spanEnvelope(sc).Append(nil), 0x09))
		if err != nil || e2 != spanEnvelope(sc) {
			t.Fatalf("round trip: got (%+v, %v), want %+v", e2, err, sc)
		}
	})
}
