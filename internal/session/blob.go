package session

import (
	"errors"
	"time"

	"repro/internal/codec"
	"repro/internal/wire"
)

// Blob encodings. Two shapes share one entry format:
//
//   - Snapshot/Restore (version 1): the whole table — every live session
//     with its floor and reply window, plus the tombstones. A replica
//     group embeds this in its state snapshot so promotion at a new
//     epoch inherits dedup state.
//   - ExportKeys/ImportBlob (version 2): a flat set of key-tagged
//     entries, carried alongside a shard rebalance handoff so the new
//     owner of a key can keep recognizing retries of writes the old
//     owner already applied.
//
// One entry: uvarint sid, uvarint seq, kind byte, flag byte (bit0 =
// IsErr), key bytes, payload bytes. Digests are recomputed on decode.

const (
	blobSnapshot byte = 1
	blobEntries  byte = 2
)

// ErrBadBlob reports a blob the decoder cannot parse.
var ErrBadBlob = errors.New("session: malformed dedup blob")

func appendEntry(dst []byte, sid, seq uint64, e *Entry) []byte {
	dst = wire.AppendUvarint(dst, sid)
	dst = wire.AppendUvarint(dst, seq)
	dst = append(dst, byte(e.Kind))
	var flags byte
	if e.IsErr {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = wire.AppendBytes(dst, []byte(e.Key))
	return wire.AppendBytes(dst, e.Payload)
}

func decodeEntry(src []byte) (sid, seq uint64, e *Entry, rest []byte, err error) {
	sid, n, err := wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	seq, n, err = wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	if len(src) < 2 {
		return 0, 0, nil, nil, ErrBadBlob
	}
	kind, flags := wire.Kind(src[0]), src[1]
	src = src[2:]
	key, n, err := wire.Bytes(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	payload, n, err := wire.Bytes(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	e = &Entry{
		Kind:    kind,
		IsErr:   flags&1 != 0,
		Payload: append([]byte(nil), payload...),
		Key:     string(key),
		Digest:  Digest(payload),
	}
	return sid, seq, e, src[n:], nil
}

// Snapshot encodes the whole table (sessions, reply windows, floors,
// tombstones) for embedding in a replicated object's state snapshot.
func (t *Table) Snapshot() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	dst := []byte{blobSnapshot}
	dst = wire.AppendUvarint(dst, uint64(len(t.sessions)))
	// LRU order back-to-front, so restoring (which pushes front) rebuilds
	// the same recency order.
	for el := t.lru.Back(); el != nil; el = el.Prev() {
		s := el.Value.(*sess)
		dst = wire.AppendUvarint(dst, s.sid)
		dst = wire.AppendUvarint(dst, s.high)
		dst = wire.AppendUvarint(dst, s.floor)
		dst = wire.AppendUvarint(dst, uint64(len(s.done)))
		// Commit order oldest-to-newest for the same reason.
		for oe := s.order.Back(); oe != nil; oe = oe.Prev() {
			seq := oe.Value.(uint64)
			dst = appendEntry(dst, s.sid, seq, s.done[seq])
		}
	}
	dst = wire.AppendUvarint(dst, uint64(t.tombOrd.Len()))
	for el := t.tombOrd.Front(); el != nil; el = el.Next() {
		sid := el.Value.(uint64)
		dst = wire.AppendUvarint(dst, sid)
		dst = wire.AppendUvarint(dst, t.tombs[sid])
	}
	return dst
}

// Restore replaces the table's contents from a Snapshot blob. In-flight
// marks are not part of snapshots (an in-flight invocation at snapshot
// time either commits later or is retried and re-executes).
func (t *Table) Restore(blob []byte) error {
	if len(blob) == 0 || blob[0] != blobSnapshot {
		return ErrBadBlob
	}
	src := blob[1:]
	nSess, n, err := wire.Uvarint(src)
	if err != nil {
		return err
	}
	src = src[n:]
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions = make(map[uint64]*sess)
	t.lru.Init()
	t.tombs = make(map[uint64]uint64)
	t.tombOrd.Init()
	t.replies = 0
	for i := uint64(0); i < nSess; i++ {
		var sid, high, floor, nDone uint64
		if sid, n, err = wire.Uvarint(src); err != nil {
			return err
		}
		src = src[n:]
		if high, n, err = wire.Uvarint(src); err != nil {
			return err
		}
		src = src[n:]
		if floor, n, err = wire.Uvarint(src); err != nil {
			return err
		}
		src = src[n:]
		if nDone, n, err = wire.Uvarint(src); err != nil {
			return err
		}
		src = src[n:]
		s := t.reviveLocked(sid, now)
		s.high, s.floor = high, floor
		for j := uint64(0); j < nDone; j++ {
			var seq uint64
			var e *Entry
			if _, seq, e, src, err = decodeEntry(src); err != nil {
				return err
			}
			t.storeLocked(s, seq, e)
		}
		if s.high < high {
			s.high = high
		}
	}
	nTombs, n, err := wire.Uvarint(src)
	if err != nil {
		return err
	}
	src = src[n:]
	for i := uint64(0); i < nTombs; i++ {
		var sid, high uint64
		if sid, n, err = wire.Uvarint(src); err != nil {
			return err
		}
		src = src[n:]
		if high, n, err = wire.Uvarint(src); err != nil {
			return err
		}
		src = src[n:]
		if _, ok := t.sessions[sid]; ok {
			continue // revived by a restored entry; the floor already covers it
		}
		if _, ok := t.tombs[sid]; !ok {
			t.tombOrd.PushBack(sid)
		}
		t.tombs[sid] = high
	}
	return nil
}

// ExportKeys encodes every cached entry whose shard key is in keys, for
// carrying alongside a key handoff. Nil when nothing matches, so callers
// can skip the extra argument entirely.
func (t *Table) ExportKeys(keys []string) []byte {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var body []byte
	count := uint64(0)
	for el := t.lru.Back(); el != nil; el = el.Prev() {
		s := el.Value.(*sess)
		for oe := s.order.Back(); oe != nil; oe = oe.Prev() {
			seq := oe.Value.(uint64)
			e := s.done[seq]
			if e.Key == "" || !want[e.Key] {
				continue
			}
			body = appendEntry(body, s.sid, seq, e)
			count++
		}
	}
	if count == 0 {
		return nil
	}
	dst := []byte{blobEntries}
	dst = wire.AppendUvarint(dst, count)
	return append(dst, body...)
}

// ImportBlob merges an ExportKeys blob into the table (new owner of the
// moved keys). Idempotent: pushes are retried. Nil and empty blobs are
// no-ops.
func (t *Table) ImportBlob(blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	if blob[0] != blobEntries {
		return ErrBadBlob
	}
	src := blob[1:]
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return err
	}
	src = src[n:]
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := uint64(0); i < count; i++ {
		var sid, seq uint64
		var e *Entry
		if sid, seq, e, src, err = decodeEntry(src); err != nil {
			return err
		}
		s, ok := t.sessions[sid]
		if !ok {
			s = t.reviveLocked(sid, now)
		}
		delete(s.inflight, seq)
		t.storeLocked(s, seq, e)
	}
	return nil
}

// FilterKeys returns the subset of keys that tag at least one cached
// entry (routers use it to avoid shipping empty blobs).
func (t *Table) FilterKeys(keys []string) []string {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	hit := make(map[string]bool)
	t.mu.Lock()
	for _, s := range t.sessions {
		for _, e := range s.done {
			if e.Key != "" && want[e.Key] {
				hit[e.Key] = true
			}
		}
	}
	t.mu.Unlock()
	out := make([]string, 0, len(hit))
	for _, k := range keys {
		if hit[k] {
			out = append(out, k)
		}
	}
	return out
}

// expiredPayload is built once: the preencoded InvokeError a server
// answers an Expired verdict with. The struct shape mirrors
// core.EncodeInvokeError, and the code value is core.CodeSessionExpired
// — pinned by a test in core, since this package cannot import core
// (core imports it).
var expiredPayload = func() []byte {
	s := codec.Struct{Name: "InvokeError", Fields: []codec.Field{
		{Name: "Code", Value: int64(10)}, // core.CodeSessionExpired
		{Name: "Method", Value: ""},
		{Name: "Msg", Value: "session expired: retry outlived the dedup window; outcome unknown"},
	}}
	buf, err := codec.Append(nil, s)
	if err != nil {
		panic(err)
	}
	return buf
}()

// ExpiredPayload returns the encoded InvokeError (CodeSessionExpired)
// answering a retry whose session was evicted: whether the original
// executed is unknowable, so the caller must fail loudly, not replay.
// Callers must not mutate the returned slice.
func ExpiredPayload() []byte { return expiredPayload }

// DefaultTTL is the default idle-session lifetime proxyd configures.
const DefaultTTL = 10 * time.Minute
