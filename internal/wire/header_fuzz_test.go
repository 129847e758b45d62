package wire

import (
	"bytes"
	"testing"
	"time"
)

// canon is e as it comes back from the wire: a field whose leading value
// is zero writes nothing, so what rides behind it is lost.
func canon(e Envelope) Envelope {
	if e.Session == 0 {
		e.Seq = 0
	}
	if e.Budget <= 0 {
		e.Budget = 0
	}
	if e.Trace == 0 {
		e.Span = 0
	}
	return e
}

// fieldwise reads data with the four per-field codecs in canonical order:
// the reference ParseEnvelope is checked against.
func fieldwise(data []byte) (e Envelope, rest []byte) {
	e.Priority, rest = SplitPriorityHeader(data)
	e.Session, e.Seq, rest = SplitSessionHeader(rest)
	e.Budget, rest = SplitDeadlineHeader(rest)
	e.Trace, e.Span, rest = splitPair(rest, traceMagic)
	return e, rest
}

// Fuzz entry point for the envelope parser: ParseEnvelope and
// Envelope.Append, the pair Decode and Frame.Encode are written with,
// checked against the per-field codecs (priority 0xF7, session 0xF8,
// deadline 0xF6, trace 0xF5). The contract under hostile input mirrors
// the frame decoder's: never panic; read exactly what the field codecs
// read, in canonical order; reject — whole, with nothing consumed — bytes
// that stop inside a field or present one out of turn; and re-encode
// every accepted envelope to something that parses back to the same
// values. Run with e.g.
//
//	go test -fuzz=FuzzPayloadHeaders -fuzztime=30s ./internal/wire
//
// Seed corpus: all 16 subsets of the four fields, whole and cut one byte
// short, bare and truncated magics, and a 0xF4 prefix — as f.Add seeds
// below and as committed files under testdata/fuzz/FuzzPayloadHeaders.
func FuzzPayloadHeaders(f *testing.F) {
	full := Envelope{Priority: PriorityHigh, Session: 5, Seq: 2, Budget: time.Microsecond, Trace: 1, Span: 2}
	for subset := 0; subset < 16; subset++ {
		var e Envelope
		if subset&1 != 0 {
			e.Priority = full.Priority
		}
		if subset&2 != 0 {
			e.Session, e.Seq = full.Session, full.Seq
		}
		if subset&4 != 0 {
			e.Budget = full.Budget
		}
		if subset&8 != 0 {
			e.Trace, e.Span = full.Trace, full.Span
		}
		enc := e.Append(nil)
		if len(enc) != e.encodedLen(nil) {
			f.Fatalf("subset %d: encodedLen %d, Append wrote %d", subset, e.encodedLen(nil), len(enc))
		}
		got, body, err := ParseEnvelope(append(enc, "body"...))
		if err != nil || got != e || string(body) != "body" {
			f.Fatalf("subset %d: parse = (%+v, %q, %v), want %+v", subset, got, body, err, e)
		}
		f.Add(append(enc, "body"...))
		if len(enc) > 0 {
			// One byte short stops inside the last field.
			cut := enc[:len(enc)-1]
			if got, rest, err := ParseEnvelope(cut); err != ErrBadEnvelope || got != (Envelope{}) || !bytes.Equal(rest, cut) {
				f.Fatalf("subset %d cut short: parse = (%+v, %x, %v), want rejection", subset, got, rest, err)
			}
			f.Add(cut)
		}
	}
	f.Add([]byte{sessionMagic, 0x85})                       // truncated session uvarint
	f.Add([]byte{deadlineMagic})                            // deadline magic, no budget
	f.Add([]byte{priorityMagic})                            // priority magic, no class
	f.Add([]byte{0xF4, 'j', 'u', 'n', 'k'})                 // end mark, then the body
	f.Add([]byte{deadlineMagic, 0x01, priorityMagic, 0x01}) // out of order
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, body, err := ParseEnvelope(data)
		want, rest := fieldwise(data)
		if err != nil {
			// Rejected whole: the bytes the field codecs stop at open with
			// a field magic none of them would take.
			if err != ErrBadEnvelope || e != (Envelope{}) || !bytes.Equal(body, data) {
				t.Fatalf("rejection consumed input: (%+v, %d of %d bytes, %v)", e, len(body), len(data), err)
			}
			if len(rest) == 0 || rest[0] < traceMagic || rest[0] > sessionMagic {
				t.Fatalf("rejected %x, but the field codecs stop cleanly at %x", data, rest)
			}
			return
		}
		if len(rest) > 0 && rest[0] == envelopeEnd {
			rest = rest[1:]
		}
		if e != want || !bytes.Equal(body, rest) {
			t.Fatalf("ParseEnvelope = (%+v, %x), field codecs = (%+v, %x)", e, body, want, rest)
		}
		if e.isZero() {
			return // Encode writes no envelope for it, so nothing parses one back
		}
		// Uvarint fields admit non-minimal encodings, so compare the
		// re-parse, not the bytes.
		enc := e.appendFramed(nil, body)
		if len(enc) != e.encodedLen(body)+len(body) {
			t.Fatalf("encodedLen %d, wrote %d for %+v", e.encodedLen(body), len(enc)-len(body), e)
		}
		e2, body2, err := ParseEnvelope(enc)
		if err != nil || e2 != canon(e) || !bytes.Equal(body2, body) {
			t.Fatalf("round trip: (%+v, %x, %v), want (%+v, %x)", e2, body2, err, canon(e), body)
		}
		// The frozen rewrite composition installs the budget and keeps
		// every other field; bytes with no deadline field pass untouched.
		out := RewriteDeadlineHeader(data, time.Second)
		if e.Budget <= 0 {
			if !bytes.Equal(out, data) {
				t.Fatal("rewrite modified bytes with no deadline field")
			}
			return
		}
		want = canon(e)
		want.Budget = time.Second
		if e3, body3, err := ParseEnvelope(out); err != nil || e3 != want || !bytes.Equal(body3, body) {
			t.Fatalf("rewrite: (%+v, %x, %v), want (%+v, %x)", e3, body3, err, want, body)
		}
	})
}
