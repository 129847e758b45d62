package wire

import (
	"errors"
	"time"
)

// Envelope is the control part of a request frame: what the layers
// between a proxy and its server act on, kept apart from the payload,
// which stays private to the service. Frame.Encode writes it in front of
// the payload under FlagEnvelope and Decode parses it back, once; no
// layer looks for it inside payload bytes. The zero value costs nothing
// on the wire.
type Envelope struct {
	Priority Priority // admission class
	// Session and Seq are the caller's exactly-once identity: every
	// retransmission and failover replay of one logical call presents the
	// same pair. Session 0 means unstamped.
	Session, Seq uint64
	Budget       time.Duration // caller's remaining deadline, relative; ≤ 0 means none
	Trace, Span  uint64        // caller's span (obs.SpanContext); Trace 0 means untraced
}

// Field magics. A present field is [magic, value…]; fields travel in the
// order priority → session → deadline → trace. envelopeEnd closes the
// envelope when, and only when, the payload behind it opens with a byte
// of this range, so no payload is ever read as a field.
const (
	envelopeEnd   = 0xF4
	traceMagic    = 0xF5 // uvarint trace, uvarint span
	deadlineMagic = 0xF6 // uvarint nanoseconds
	priorityMagic = 0xF7 // class byte
	sessionMagic  = 0xF8 // uvarint session, uvarint seq

	maxEnvelopeLen = 4 + 1 + 5*MaxVarintLen // four magics, a class byte, five uvarints
)

// ErrBadEnvelope rejects a frame whose FlagEnvelope is set over bytes
// that are not one canonical envelope.
var ErrBadEnvelope = errors.New("wire: malformed frame envelope")

// isZero reports whether e has nothing to put on the wire.
func (e *Envelope) isZero() bool {
	return e.Priority == PriorityNormal && e.Session == 0 && e.Budget <= 0 && e.Trace == 0
}

// Append appends each non-zero field through its codec, in canonical order.
func (e Envelope) Append(dst []byte) []byte {
	dst = AppendPriorityHeader(dst, e.Priority)
	dst = AppendSessionHeader(dst, e.Session, e.Seq)
	dst = AppendDeadlineHeader(dst, e.Budget)
	return appendPair(dst, traceMagic, e.Trace, e.Span)
}

// appendFramed appends a non-zero envelope, the end mark where body needs
// one, and body: the payload bytes of an encoded frame.
func (e *Envelope) appendFramed(dst, body []byte) []byte {
	dst = e.Append(dst)
	if needsEnd(body) {
		dst = append(dst, envelopeEnd)
	}
	return append(dst, body...)
}

// ParseEnvelope reads an envelope off the front of src and returns it
// with the bytes behind it. Bytes that open with no field are an empty
// envelope; a field its codec will not take — truncated, repeated or out
// of order — is ErrBadEnvelope, never a half-read.
func ParseEnvelope(src []byte) (e Envelope, body []byte, err error) {
	e.Priority, body = SplitPriorityHeader(src)
	e.Session, e.Seq, body = SplitSessionHeader(body)
	e.Budget, body = SplitDeadlineHeader(body)
	e.Trace, e.Span, body = splitPair(body, traceMagic)
	switch {
	case len(body) == 0:
	case body[0] == envelopeEnd:
		body = body[1:]
	case body[0] >= traceMagic && body[0] <= sessionMagic:
		return Envelope{}, src, ErrBadEnvelope
	}
	return e, body, nil
}

// encodedLen is the number of bytes Encode puts in front of body.
func (e *Envelope) encodedLen(body []byte) int {
	if e.isZero() {
		return 0
	}
	var buf [maxEnvelopeLen]byte
	n := len(e.Append(buf[:0]))
	if needsEnd(body) {
		n++
	}
	return n
}

// needsEnd reports whether body opens with a byte ParseEnvelope would
// take for part of the envelope.
func needsEnd(body []byte) bool {
	return len(body) > 0 && body[0] >= envelopeEnd && body[0] <= sessionMagic
}

// The per-field codecs. A field's zero value appends nothing; a splitter
// hands bytes that do not open with its well-formed field back untouched.

// AppendPriorityHeader appends [magic, class byte] for a non-normal
// priority.
func AppendPriorityHeader(dst []byte, p Priority) []byte {
	if p == PriorityNormal {
		return dst
	}
	return append(dst, priorityMagic, byte(p))
}

// SplitPriorityHeader strips a leading priority field.
func SplitPriorityHeader(payload []byte) (Priority, []byte) {
	if len(payload) < 2 || payload[0] != priorityMagic {
		return PriorityNormal, payload
	}
	return Priority(payload[1]), payload[2:]
}

// AppendSessionHeader appends [magic, uvarint session, uvarint seq] for
// a non-zero session id.
func AppendSessionHeader(dst []byte, sid, seq uint64) []byte {
	return appendPair(dst, sessionMagic, sid, seq)
}

// SplitSessionHeader strips a leading session field.
func SplitSessionHeader(payload []byte) (sid, seq uint64, rest []byte) {
	return splitPair(payload, sessionMagic)
}

// AppendDeadlineHeader appends [magic, uvarint nanoseconds] for a
// positive budget.
func AppendDeadlineHeader(dst []byte, budget time.Duration) []byte {
	if budget <= 0 {
		return dst
	}
	return AppendUvarint(append(dst, deadlineMagic), uint64(budget))
}

// SplitDeadlineHeader strips a leading deadline field.
func SplitDeadlineHeader(payload []byte) (time.Duration, []byte) {
	if len(payload) == 0 || payload[0] != deadlineMagic {
		return 0, payload
	}
	ns, n, err := Uvarint(payload[1:])
	if err != nil {
		return 0, payload
	}
	return time.Duration(ns), payload[1+n:]
}

// appendPair appends [magic, uvarint a, uvarint b] unless a is zero.
func appendPair(dst []byte, magic byte, a, b uint64) []byte {
	if a == 0 {
		return dst
	}
	return AppendUvarint(AppendUvarint(append(dst, magic), a), b)
}

func splitPair(payload []byte, magic byte) (a, b uint64, rest []byte) {
	if len(payload) == 0 || payload[0] != magic {
		return 0, 0, payload
	}
	a, n, err := Uvarint(payload[1:])
	if err != nil {
		return 0, 0, payload
	}
	b, m, err := Uvarint(payload[1+n:])
	if err != nil {
		return 0, 0, payload
	}
	return a, b, payload[1+n+m:]
}

// RewriteDeadlineHeader returns payload with the deadline field of the
// envelope it opens with set to budget (at least 1 ns), or payload itself
// when there is none. Only benchmark/ladder.go calls it — a
// retransmission stores Envelope.Budget — until the benchmark-only PR.
func RewriteDeadlineHeader(payload []byte, budget time.Duration) []byte {
	e, body, err := ParseEnvelope(payload)
	if err != nil || e.Budget <= 0 {
		return payload
	}
	e.Budget = max(budget, time.Nanosecond)
	return e.appendFramed(make([]byte, 0, len(payload)+MaxVarintLen), body)
}
