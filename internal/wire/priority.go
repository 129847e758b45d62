package wire

import "time"

// Priority class and pushback payload. Both belong to the overload
// machinery: the class (Envelope.Priority) is how a sender declares what
// its request travels as, and the pushback payload is what an overloaded
// kernel answers shed requests with.

// Priority classifies a request for admission control. The zero value is
// PriorityNormal, so a request with no envelope is admitted as ordinary
// traffic.
type Priority uint8

// Priority classes.
const (
	// PriorityNormal is ordinary user traffic: admitted up to the
	// adaptive concurrency limit, queued briefly, shed under overload.
	PriorityNormal Priority = 0
	// PriorityHigh is system traffic the mesh cannot live without —
	// rebalance steps, replica syncs — which is never shed behind user
	// calls (health pings are answered below admission entirely).
	PriorityHigh Priority = 1
	// PriorityLow is best-effort traffic (bulk scans, prefetch): first
	// to be shed, evicted from the queue to make room for normal calls.
	PriorityLow Priority = 2
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	default:
		return "priority(?)"
	}
}

// AppendPushback builds the payload of a FlagPushback error response:
// [uvarint retry-after nanoseconds]. The hint is advisory — a client in
// a hurry may fail over instead of waiting — but a cooperating client
// that waits at least this long gives the queue time to drain.
func AppendPushback(dst []byte, retryAfter time.Duration) []byte {
	if retryAfter < 0 {
		retryAfter = 0
	}
	return AppendUvarint(dst, uint64(retryAfter))
}

// DecodePushback parses a FlagPushback payload's retry-after hint.
// Malformed or empty payloads yield zero (no hint).
func DecodePushback(payload []byte) time.Duration {
	ns, _, err := Uvarint(payload)
	if err != nil {
		return 0
	}
	return time.Duration(ns)
}
