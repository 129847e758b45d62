package replica

import (
	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/wire"
)

// Exactly-once dedup in the replicated proxy. The dedup table is part of
// the replicated state machine: the primary consults it before applying
// a session-stamped write, logs a dedup record next to the write's WAL
// record, and every transfer of state (join bootstrap, sync snapshot,
// promotion capture, WAL-snapshot compaction) carries the table along
// with the service state. Members rebuild the cached replies
// deterministically — each delivery re-invokes the write against the
// local copy, and the StateMachine contract (same writes, same order,
// same results) means the locally-encoded reply is byte-equivalent to
// the one the primary acked — so promotion at a new epoch inherits the
// dedup state without any reply shipping, and a retransmission landing
// on the new primary after a crash is recognized, not re-applied.

// record is the WAL/broadcast form of one write, this package's storage
// format: the request as the writer encoded it, behind the session field
// naming the identity the primary deduplicated it under (nothing for an
// unstamped write).
func record(sid, cseq uint64, request []byte) []byte {
	if sid == 0 {
		return request
	}
	rec := make([]byte, 0, 1+2*wire.MaxVarintLen+len(request))
	return append(wire.AppendSessionHeader(rec, sid, cseq), request...)
}

// splitRecord undoes record. It reads a whole envelope, not the session
// field alone: a record logged when headers still rode the payload opens
// with every one its writer's ctx implied, and must replay. A codec
// request opens with a tag in 1..13, never with a field magic.
func splitRecord(rec []byte) (sid, cseq uint64, request []byte) {
	e, request, _ := wire.ParseEnvelope(rec)
	return e.Session, e.Seq, request
}

// snapMagic prefixes a combined [dedup table][service state] snapshot
// blob. It sits above every codec tag and every envelope field magic, so
// a legacy plain service snapshot — whose first byte is a codec tag or a
// state-map marshal — can never collide with it; splitSnapshot falls back to treating such blobs as bare service
// state, which keeps old WAL snapshots and mixed-version groups
// readable.
const snapMagic = 0xF9

// combineSnapshot wraps service state with the dedup table's snapshot:
// [snapMagic][bytes dedup][svc].
func combineSnapshot(dedup, svc []byte) []byte {
	buf := make([]byte, 0, 1+10+len(dedup)+len(svc))
	buf = append(buf, snapMagic)
	buf = wire.AppendBytes(buf, dedup)
	return append(buf, svc...)
}

// splitSnapshot undoes combineSnapshot. A blob without the magic (an
// older incarnation's snapshot) is all service state, no dedup.
func splitSnapshot(blob []byte) (dedup, svc []byte) {
	if len(blob) == 0 || blob[0] != snapMagic {
		return nil, blob
	}
	d, n, err := wire.Bytes(blob[1:])
	if err != nil {
		return nil, blob
	}
	return d, blob[1+n:]
}

// SplitSnapshotState undoes the combined-snapshot framing for readers
// outside the package — WAL audits that want to restore the service
// state a snapshot carries, or inspect the dedup table it traveled
// with. Returns (nil, blob) for legacy plain service snapshots.
func SplitSnapshotState(blob []byte) (dedup, svc []byte) { return splitSnapshot(blob) }

// commitApplied records the reply for one applied session-stamped write
// in tab, reconstructing its encoded form locally (determinism makes it
// byte-equivalent everywhere). An un-encodable reply aborts the mark
// rather than caching garbage; invocation errors are cached as errors so
// a retransmission sees the same verdict.
func commitApplied(rt *core.Runtime, tab *session.Table, sid, cseq uint64, method string, results []any, invokeErr error) {
	if invokeErr != nil {
		tab.Commit(sid, cseq, wire.KindError, true, core.EncodeInvokeError(method, invokeErr))
		return
	}
	lowered, err := rt.LowerArgs(results)
	if err != nil {
		tab.Abort(sid, cseq)
		return
	}
	reply, err := core.EncodeResults(lowered)
	if err != nil {
		tab.Abort(sid, cseq)
		return
	}
	tab.Commit(sid, cseq, kindWrite, false, reply)
}
