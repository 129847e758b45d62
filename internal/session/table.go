// Package session implements exactly-once invocation: clients mint a
// session id plus a per-session sequence number that rides the request
// frame's envelope (wire.Envelope.Session, Seq), and servers keep a
// bounded dedup table mapping (session, seq) to the cached encoded reply. A
// retransmission — or a failover replay of the same logical call against
// an alternate binding — presents the same identity and is answered from
// the cache instead of re-executed, which is what makes non-idempotent
// methods safe to retry (Birrell–Nelson at-most-once semantics, held
// below the object layer so every proxy kind inherits them).
//
// Kernel dispatch presents an unstamped request to the same table, once,
// under its caller's conversation and request id (BeginTransmission).
//
// The table is bounded two ways: whole sessions are evicted LRU/TTL, and
// each session keeps only its most recent replies. Evicting a session
// leaves a tombstone recording the highest sequence it had reached, so a
// retry that arrives after eviction fails loudly (Expired → the caller
// sees CodeSessionExpired) instead of silently re-applying — the
// standard bounded-at-most-once trade-off, made explicit.
//
// The package depends only on wire and codec, so the kernel, rpc, the
// replica layer, and the shard guard all consult one implementation.
package session

import (
	"container/list"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Verdict classifies one (session, seq) presentation.
type Verdict int

// Verdicts returned by Begin.
const (
	// Fresh means this invocation has not been seen: execute it. Begin
	// has marked it in flight; the executor must Commit or Abort it.
	Fresh Verdict = iota
	// Replay means the invocation already executed; answer from the
	// returned Entry without dispatching.
	Replay
	// InFlight means the original execution is still running. Kernel
	// dispatch drops the duplicate (the original will answer); callers
	// that cannot wait refuse with a retryable error.
	InFlight
	// Expired means the table once knew this session but evicted it (or
	// the sequence fell below the session's reply window): whether the
	// invocation executed is unknowable, so it must fail loudly rather
	// than re-apply.
	Expired
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Fresh:
		return "fresh"
	case Replay:
		return "replay"
	case InFlight:
		return "in-flight"
	case Expired:
		return "expired"
	default:
		return "verdict(?)"
	}
}

// Entry is one cached reply.
type Entry struct {
	Kind    wire.Kind // response kind (KindReply, or KindError for app errors)
	IsErr   bool      // true when Payload is an encoded InvokeError
	Payload []byte    // encoded reply, exactly as first sent
	Key     string    // shard key tag ("" outside sharded stores)
	Digest  uint32    // crc32c of Payload (WAL dedup records, audits)
}

// Config bounds a Table. Zero fields select the defaults.
type Config struct {
	// MaxSessions caps live sessions (LRU-evicted beyond it). Default 1024.
	MaxSessions int
	// RepliesPerSession caps cached replies per session; older replies
	// are dropped and the session's floor rises, so a retry of a dropped
	// seq reports Expired. Must exceed the client's in-flight concurrency.
	// Default 64.
	RepliesPerSession int
	// TTL evicts sessions idle longer than this (checked on access and
	// by Sweep). Zero means no TTL.
	TTL time.Duration
	// MaxTombstones caps eviction tombstones (FIFO beyond it). Default 4096.
	MaxTombstones int

	// now overrides the clock (tests).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.RepliesPerSession <= 0 {
		c.RepliesPerSession = 64
	}
	if c.MaxTombstones <= 0 {
		c.MaxTombstones = 4096
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Digest is the reply digest recorded in WAL dedup records: crc32c of
// the encoded reply.
func Digest(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// sess is one session's dedup state.
type sess struct {
	sid        uint64
	lruEl      *list.Element
	lastActive time.Time
	// high is the highest seq ever presented (begun or committed).
	high uint64
	// floor: every seq ≤ floor was once committed but its reply has been
	// dropped; retrying one is Expired.
	floor    uint64
	inflight map[uint64]bool
	done     map[uint64]*Entry
	order    *list.List // commit order of done seqs (front = newest)
}

// Table is a bounded per-session dedup table. Safe for concurrent use.
type Table struct {
	cfg Config

	mu       sync.Mutex
	sessions map[uint64]*sess
	lru      *list.List // *sess, front = most recent
	tombs    map[uint64]uint64
	tombOrd  *list.List // sid FIFO
	replies  int        // total cached replies across sessions

	hits      atomic.Uint64 // replays answered from cache
	expired   atomic.Uint64 // Expired verdicts
	inflightD atomic.Uint64 // InFlight verdicts
	evictions atomic.Uint64 // sessions evicted (LRU or TTL)
}

// now reads the clock for the TTL; a table without one never does.
func (t *Table) now() time.Time {
	if t.cfg.TTL <= 0 {
		return time.Time{}
	}
	return t.cfg.now()
}

// NewTable builds a dedup table.
func NewTable(cfg Config) *Table {
	cfg = cfg.withDefaults()
	return &Table{
		cfg:      cfg,
		sessions: make(map[uint64]*sess),
		lru:      list.New(),
		tombs:    make(map[uint64]uint64),
		tombOrd:  list.New(),
	}
}

// Begin presents (sid, seq) for execution. Fresh marks it in flight —
// the caller must Commit or Abort it. Replay returns the cached entry.
// Any presentation may repeat an earlier one (a failover attempt is a new
// call under an old identity), so one the table has forgotten is Expired.
func (t *Table) Begin(sid, seq uint64) (Verdict, *Entry) {
	return t.BeginTransmission(sid, seq, true)
}

// BeginTransmission is Begin for a caller that knows which presentations
// repeat an earlier one. With retransmit false (sid, seq) was never
// presented before and cannot have executed: it is Fresh however far the
// floor or a tombstone has moved past it. Only a retransmission the table
// has forgotten is Expired.
func (t *Table) BeginTransmission(sid, seq uint64, retransmit bool) (Verdict, *Entry) {
	if sid == 0 {
		return Fresh, nil
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(now)
	s, ok := t.sessions[sid]
	if !ok {
		if high, dead := t.tombs[sid]; dead && seq <= high && retransmit {
			t.expired.Add(1)
			return Expired, nil
		}
		s = t.reviveLocked(sid, now)
	}
	s.lastActive = now
	t.lru.MoveToFront(s.lruEl)
	if e, ok := s.done[seq]; ok {
		t.hits.Add(1)
		return Replay, e
	}
	if s.inflight[seq] {
		t.inflightD.Add(1)
		return InFlight, nil
	}
	if seq <= s.floor && retransmit {
		t.expired.Add(1)
		return Expired, nil
	}
	s.inflight[seq] = true
	if seq > s.high {
		s.high = seq
	}
	return Fresh, nil
}

// Peek reports the verdict for (sid, seq) without marking anything in
// flight — the read-only half of Begin, for layers that dedup before
// delegating execution elsewhere.
func (t *Table) Peek(sid, seq uint64) (Verdict, *Entry) {
	if sid == 0 {
		return Fresh, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[sid]
	if !ok {
		if high, dead := t.tombs[sid]; dead && seq <= high {
			return Expired, nil
		}
		return Fresh, nil
	}
	if e, ok := s.done[seq]; ok {
		return Replay, e
	}
	if s.inflight[seq] {
		return InFlight, nil
	}
	if seq <= s.floor {
		return Expired, nil
	}
	return Fresh, nil
}

// Commit records the reply for (sid, seq), clearing its in-flight mark.
// The payload is copied. Committing an already-committed seq overwrites
// idempotently. It does not count as activity for the TTL: the Begin
// that admitted the invocation has just stamped the session.
func (t *Table) Commit(sid, seq uint64, kind wire.Kind, isErr bool, payload []byte) {
	t.CommitKeyed(sid, seq, "", kind, isErr, payload)
}

// CommitKeyed is Commit with a shard-key tag, so a guard can carry the
// entry along when the key is handed to a new owner.
func (t *Table) CommitKeyed(sid, seq uint64, key string, kind wire.Kind, isErr bool, payload []byte) {
	if sid == 0 {
		return
	}
	e := &Entry{
		Kind:    kind,
		IsErr:   isErr,
		Payload: append([]byte(nil), payload...),
		Key:     key,
		Digest:  Digest(payload),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sessions[sid]
	if !ok {
		s = t.reviveLocked(sid, t.now())
	}
	t.lru.MoveToFront(s.lruEl)
	delete(s.inflight, seq)
	t.storeLocked(s, seq, e)
}

// storeLocked installs one committed entry, trimming the session's reply
// window. Caller holds t.mu.
func (t *Table) storeLocked(s *sess, seq uint64, e *Entry) {
	if _, ok := s.done[seq]; ok {
		s.done[seq] = e
		return
	}
	s.done[seq] = e
	s.order.PushFront(seq)
	t.replies++
	if seq > s.high {
		s.high = seq
	}
	for len(s.done) > t.cfg.RepliesPerSession {
		oldest := s.order.Back()
		if oldest == nil {
			break
		}
		s.order.Remove(oldest)
		old := oldest.Value.(uint64)
		delete(s.done, old)
		t.replies--
		if old > s.floor {
			s.floor = old
		}
	}
}

// Abort clears an in-flight mark without recording a reply — the
// execution was shed or failed before producing one, so a retry of the
// same identity must be allowed to run.
func (t *Table) Abort(sid, seq uint64) {
	if sid == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.sessions[sid]; ok {
		delete(s.inflight, seq)
	}
}

// reviveLocked creates (or recreates) a session, evicting LRU beyond the
// cap. Caller holds t.mu.
func (t *Table) reviveLocked(sid uint64, now time.Time) *sess {
	s := &sess{
		sid:        sid,
		lastActive: now,
		inflight:   make(map[uint64]bool),
		done:       make(map[uint64]*Entry),
		order:      list.New(),
	}
	// A tombstoned session coming back (a seq past its tombstone) keeps
	// its floor: seqs at or below the tombstone stay Expired.
	if high, ok := t.tombs[sid]; ok {
		s.floor, s.high = high, high
		delete(t.tombs, sid)
		for el := t.tombOrd.Front(); el != nil; el = el.Next() {
			if el.Value.(uint64) == sid {
				t.tombOrd.Remove(el)
				break
			}
		}
	}
	s.lruEl = t.lru.PushFront(s)
	t.sessions[sid] = s
	for len(t.sessions) > t.cfg.MaxSessions {
		coldest := t.lru.Back()
		if coldest == nil {
			break
		}
		t.evictLocked(coldest.Value.(*sess))
	}
	return s
}

// evictLocked removes one session, leaving a tombstone at its high mark.
// Caller holds t.mu.
func (t *Table) evictLocked(s *sess) {
	t.lru.Remove(s.lruEl)
	delete(t.sessions, s.sid)
	t.replies -= len(s.done)
	t.evictions.Add(1)
	if _, ok := t.tombs[s.sid]; !ok {
		t.tombOrd.PushBack(s.sid)
	}
	t.tombs[s.sid] = s.high
	for len(t.tombs) > t.cfg.MaxTombstones {
		oldest := t.tombOrd.Front()
		if oldest == nil {
			break
		}
		t.tombOrd.Remove(oldest)
		delete(t.tombs, oldest.Value.(uint64))
	}
}

// sweepLocked evicts TTL-expired sessions. Caller holds t.mu.
func (t *Table) sweepLocked(now time.Time) {
	if t.cfg.TTL <= 0 {
		return
	}
	for {
		coldest := t.lru.Back()
		if coldest == nil {
			return
		}
		s := coldest.Value.(*sess)
		if now.Sub(s.lastActive) < t.cfg.TTL {
			return
		}
		t.evictLocked(s)
	}
}

// Sweep runs one TTL pass explicitly (timers live with the owner; the
// table itself starts no goroutines).
func (t *Table) Sweep() {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(now)
}

// Stats is a point-in-time summary of the table.
type Stats struct {
	Sessions   int    // live sessions
	Replies    int    // cached replies across all sessions
	Tombstones int    // evicted-session tombstones
	Hits       uint64 // replays answered from cache
	Expired    uint64 // Expired verdicts returned
	InFlight   uint64 // duplicate-while-running verdicts returned
	Evictions  uint64 // sessions evicted (LRU or TTL)
}

// Stats snapshots the table's counters and occupancy.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	sessions, replies, tombs := len(t.sessions), t.replies, len(t.tombs)
	t.mu.Unlock()
	return Stats{
		Sessions:   sessions,
		Replies:    replies,
		Tombstones: tombs,
		Hits:       t.hits.Load(),
		Expired:    t.expired.Load(),
		InFlight:   t.inflightD.Load(),
		Evictions:  t.evictions.Load(),
	}
}

// Info describes one live session (proxyctl sessions).
type Info struct {
	SID      uint64
	High     uint64
	Cached   int
	InFlight int
}

// Sessions lists the live sessions, most recently used first.
func (t *Table) Sessions() []Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Info, 0, len(t.sessions))
	for el := t.lru.Front(); el != nil; el = el.Next() {
		s := el.Value.(*sess)
		out = append(out, Info{SID: s.sid, High: s.high, Cached: len(s.done), InFlight: len(s.inflight)})
	}
	return out
}
