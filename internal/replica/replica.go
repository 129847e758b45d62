// Package replica implements the replicated smart proxy: every proxy
// holds a full copy of the object and serves reads locally, while writes
// funnel through the primary, which applies them and pushes them to every
// copy in a single total order (state-machine replication over
// internal/group's sequenced broadcast).
//
// The client cannot tell a replicated proxy from a stub — identical
// Invoke interface, very different cost profile: reads are local calls
// (experiment E4 measures the scaling), writes pay a broadcast round.
//
// Consistency: writes are linearizable (the primary orders them and a
// write returns only after every replica has applied it); reads are
// served from the local replica, so a read concurrent with a write may
// see either side of it, and read-your-writes holds because the writer's
// own replica is updated before its write returns.
//
// Fault tolerance: the primary appends every ordered write to a
// write-ahead log (internal/persist) before acknowledging it, and each
// proxy runs a repair loop (heal.go) that rejoins after eviction, fetches
// missed state from the primary (log suffix or full snapshot), and — when
// the primary's node dies — promotes a deterministic successor under a
// new epoch that fences the deposed primary. A primary restarted on top
// of a durable log store reassumes the sequencer role at a fresh epoch.
// DESIGN.md's "Recovery" subsection documents the protocol and its
// single-failure guarantee.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/persist"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/wire"
)

// Private protocol kinds between replica proxies and the primary.
const (
	// kindWrite submits a write to the primary's ordered path.
	kindWrite = wire.KindCustom + 40
	// kindSync is the repair/anti-entropy probe: a member reports its
	// position and gets back nothing (in sync), a log suffix, or a full
	// snapshot — and is re-added to the delivery set if it was evicted.
	kindSync = wire.KindCustom + 41
	// kindWhereIs asks a *member* (not the primary) who it believes the
	// primary is; the answer carries an epoch so stale beliefs lose.
	kindWhereIs = wire.KindCustom + 42
)

// StateMachine is a deterministic service whose full state can be
// snapshotted and restored: applying the same writes in the same order to
// the same starting snapshot must yield the same state everywhere.
// (Structurally identical to migrate.Migratable; the semantic contract —
// determinism — is what this name adds.)
type StateMachine interface {
	core.Service
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// ErrNotStateMachine reports an export of a service that cannot be
// replicated.
var ErrNotStateMachine = errors.New("replica: service does not implement StateMachine")

// FactoryOption configures a Factory.
type FactoryOption func(*Factory)

// WithDeliverTimeout bounds how long a write waits for one replica to
// acknowledge before the primary suspects it dead and evicts it (default
// 5s; shrink it to trade write-latency tail for faster failover). An
// evicted replica that is merely slow, not dead, rejoins through the
// repair loop.
func WithDeliverTimeout(d time.Duration) FactoryOption {
	return func(f *Factory) { f.deliverTimeout = d }
}

// WithSyncInterval sets the repair-loop period: how often each proxy
// confirms it is still a member, fetches missed state, and probes the
// primary's liveness (default 1s; tests shrink it for fast failover).
func WithSyncInterval(d time.Duration) FactoryOption {
	return func(f *Factory) {
		if d > 0 {
			f.syncInterval = d
		}
	}
}

// WithWALStore supplies the durable store backing the write-ahead log of
// whichever node becomes primary (the exporter at first, a promoted
// successor later). The default is a fresh in-memory store per
// incarnation — appropriate on the simulated network, where netsim's
// Restart models in-memory state as durable. proxyd passes file-backed
// stores so a real restart reassumes the group.
func WithWALStore(fn func(node wire.Addr) persist.LogStore) FactoryOption {
	return func(f *Factory) { f.walStore = fn }
}

// WithSnapshotEvery sets how many writes the primary logs between
// full-state snapshots (which also truncate the log). Default 64.
func WithSnapshotEvery(n uint64) FactoryOption {
	return func(f *Factory) {
		if n > 0 {
			f.snapEvery = n
		}
	}
}

// WithName labels the group in the replica status service (proxyctl
// group). Default "replica".
func WithName(name string) FactoryOption {
	return func(f *Factory) { f.name = name }
}

// Factory is the replicated proxy factory. The service side constructs it
// with the read-method set and a constructor for fresh replicas; every
// runtime that imports the service registers the same factory.
// Implements core.ProxyFactory.
type Factory struct {
	reads          []string
	ctor           func() StateMachine
	deliverTimeout time.Duration
	syncInterval   time.Duration
	walStore       func(node wire.Addr) persist.LogStore
	snapEvery      uint64
	name           string
}

var _ core.ProxyFactory = (*Factory)(nil)

// NewFactory builds a replicating factory: readMethods are served from the
// local copy; everything else is a write ordered by the primary. ctor
// constructs the empty replica into which the bootstrap snapshot is
// restored.
func NewFactory(readMethods []string, ctor func() StateMachine, opts ...FactoryOption) *Factory {
	f := &Factory{
		reads:        append([]string(nil), readMethods...),
		ctor:         ctor,
		syncInterval: time.Second,
		walStore:     func(wire.Addr) persist.LogStore { return persist.NewMemStore(nil) },
		snapEvery:    64,
		name:         "replica",
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// repHint is the private bootstrap blob: the primary control object plus
// the read-method set.
type repHint struct {
	Ctrl  wire.ObjectID
	Reads []string
}

func (h repHint) encode() []byte {
	buf := wire.AppendUvarint(nil, uint64(h.Ctrl))
	buf = wire.AppendUvarint(buf, uint64(len(h.Reads)))
	for _, r := range h.Reads {
		buf = wire.AppendString(buf, r)
	}
	return buf
}

func decodeRepHint(src []byte) (repHint, error) {
	var h repHint
	ctrl, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	h.Ctrl = wire.ObjectID(ctrl)
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return h, codec.ErrElementCount
	}
	for i := uint64(0); i < count; i++ {
		s, n, err := wire.String(src)
		if err != nil {
			return h, err
		}
		src = src[n:]
		h.Reads = append(h.Reads, s)
	}
	return h, nil
}

// Export implements the server half of core.ProxyFactory: it stands up
// the primary (sequencer +
// control object) for this service. If the factory's log store already
// holds a previous incarnation's write-ahead log, the primary reassumes
// the group: state is rebuilt from the last snapshot plus the logged
// suffix, and the sequencer restarts at the next epoch so any survivor of
// the old incarnation is fenced.
func (f *Factory) Export(rt *core.Runtime, svc core.Service, ref codec.Ref) (core.Service, []byte, error) {
	sm, ok := svc.(StateMachine)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %T", ErrNotStateMachine, svc)
	}
	wal, err := persist.OpenWAL(f.walStore(rt.Addr()))
	if err != nil {
		return nil, nil, fmt.Errorf("replica: open wal: %w", err)
	}
	tab := session.NewTable(session.Config{})
	epoch, startSeq := uint64(1), uint64(0)
	if le, ls := wal.Last(); le > 0 {
		// Reassume a crashed incarnation's group from its log. The dedup
		// table is rebuilt along with the state: the snapshot carries its
		// baseline, and replaying each logged write re-records its reply,
		// so a client retransmission that outlived the crash is recognized
		// by the reassumed incarnation instead of re-applied.
		if _, _, state, ok := wal.LastSnapshot(); ok {
			dedup, svcState := splitSnapshot(state)
			if dedup != nil {
				_ = tab.Restore(dedup)
			}
			if err := sm.Restore(svcState); err != nil {
				return nil, nil, fmt.Errorf("replica: restore wal snapshot: %w", err)
			}
		}
		for _, r := range wal.Records() {
			sid, cseq, request := splitRecord(r.Payload)
			_, method, args, err := core.DecodeRequest(rt.Decoder(), request)
			if err != nil {
				continue
			}
			results, ierr := sm.Invoke(context.Background(), method, args)
			if sid != 0 {
				commitApplied(rt, tab, sid, cseq, method, results, ierr)
			}
		}
		epoch, startSeq = le+1, ls
	}
	p := &primary{
		rt: rt, svc: sm, isRead: readSet(f.reads), cap: ref.Cap,
		wal: wal, tab: tab, name: f.name, snapEvery: f.snapEvery,
	}
	seqOpts := []group.SequencerOption{
		group.WithEpoch(epoch),
		group.WithStartSeq(startSeq),
		group.WithOnEvict(p.onEvict),
	}
	if f.deliverTimeout > 0 {
		seqOpts = append(seqOpts, group.WithDeliverTimeout(f.deliverTimeout))
	}
	p.seq = group.NewSequencer(rt, seqOpts...)
	// Stamp this incarnation's baseline into the log: recovery of *this*
	// incarnation starts here.
	if state, err := p.snapshotState(); err == nil {
		_ = wal.Snapshot(epoch, startSeq, state)
	}
	srv := rpc.NewServer(rpc.HandlerFunc(p.handle))
	p.id = rt.Kernel().Register(srv)
	registerStatus(rt, p)
	h := repHint{Ctrl: p.id, Reads: f.reads}
	return &wrapped{p: p}, h.encode(), nil
}

// New implements core.ProxyFactory: build the local replica, join the
// group, restore the snapshot, serve — and keep a repair loop running for
// the rest of the proxy's life.
func (f *Factory) New(rt *core.Runtime, ref codec.Ref) (core.Proxy, error) {
	h, err := decodeRepHint(ref.Hint)
	if err != nil {
		return nil, fmt.Errorf("replica: bad hint in %s: %w", ref, err)
	}
	if f.ctor == nil {
		return nil, fmt.Errorf("replica: factory has no constructor (importing runtime must register the service's factory)")
	}
	p := &Proxy{
		rt:     rt,
		f:      f,
		ref:    ref,
		ctrl:   wire.ObjAddr{Addr: ref.Target.Addr, Object: h.Ctrl},
		isRead: readSet(h.Reads),
		local:  f.ctor(),
		tab:    session.NewTable(session.Config{}),
		stop:   make(chan struct{}),
	}
	ctx, cancel := contextWithJoinTimeout()
	defer cancel()
	member, info, err := group.Join(ctx, rt, p.ctrl, p.apply, group.WithRequestHandler(p.handleRepair))
	if err != nil {
		return nil, fmt.Errorf("replica: join: %w", err)
	}
	dedup, boot := splitSnapshot(info.Boot)
	if dedup != nil {
		_ = p.tab.Restore(dedup)
	}
	if err := p.local.Restore(boot); err != nil {
		_ = member.Leave(ctx)
		return nil, fmt.Errorf("replica: restore bootstrap: %w", err)
	}
	p.member = member
	p.epoch = info.Epoch
	p.stateEpoch = info.Epoch
	p.appliedSeq.Store(info.BootSeq)
	if view, err := decodeView(info.Extra); err == nil {
		p.view = view
	}
	registerStatus(rt, p)
	go p.healLoop()
	return p, nil
}

func readSet(reads []string) func(string) bool {
	m := make(map[string]bool, len(reads))
	for _, r := range reads {
		m[r] = true
	}
	return func(s string) bool { return m[s] }
}

// primary owns the authoritative copy and the write order.
type primary struct {
	rt     *core.Runtime
	svc    StateMachine
	isRead func(string) bool
	seq    *group.Sequencer
	wal    *persist.WAL
	// tab is the exactly-once dedup table, replicated with the state
	// (see dedup.go). A promoted proxy passes its member table in, so
	// the new incarnation inherits every committed identity.
	tab *session.Table
	id  wire.ObjectID
	// cap mirrors the export's capability token for the private write path.
	cap       uint64
	name      string
	snapEvery uint64

	// mu serializes apply+log+broadcast for writes and snapshot+join for
	// joins, which is what makes the bootstrap sequence point exact.
	mu      sync.Mutex
	writes  uint64
	deposed bool

	// viewMu guards the join-ordered membership view. Separate from mu
	// because evictions are reported mid-Deliver, while mu is held.
	viewMu sync.Mutex
	view   []wire.ObjAddr
}

// errDeposed is the fencing verdict a deposed primary returns everywhere.
func errDeposed(method string) []byte {
	return core.EncodeInvokeError(method,
		core.Errorf(core.CodeFenced, method, "replica: primary deposed (a successor holds a newer epoch)"))
}

func (p *primary) handle(req *rpc.Request) (wire.Kind, []byte, []byte) {
	switch req.Kind {
	case group.KindJoin:
		member, _, err := wire.DecodeObjAddr(req.Frame.Payload)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("join", err)
		}
		p.mu.Lock()
		if p.deposed {
			p.mu.Unlock()
			return 0, nil, errDeposed("join")
		}
		boot, err := p.snapshotState()
		if err != nil {
			p.mu.Unlock()
			return 0, nil, core.EncodeInvokeError("join", err)
		}
		bootSeq := p.seq.Seq()
		p.seq.AddMember(member, bootSeq)
		p.addToView(member)
		view := encodeView(p.snapshotView())
		p.mu.Unlock()
		reply, err := group.EncodeJoinReply(p.seq.Epoch(), bootSeq, boot, view)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("join", err)
		}
		return group.KindJoin, reply, nil
	case group.KindLeave:
		member, _, err := wire.DecodeObjAddr(req.Frame.Payload)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("leave", err)
		}
		p.seq.RemoveMember(member)
		p.removeFromView(member)
		return group.KindLeave, nil, nil
	case kindWrite:
		return p.handleWrite(req)
	case kindSync:
		return p.handleSync(req)
	default:
		return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "replica: unexpected kind %v", req.Kind))
	}
}

func (p *primary) handleWrite(req *rpc.Request) (wire.Kind, []byte, []byte) {
	cap, method, args, err := core.DecodeRequest(p.rt.Decoder(), req.Frame.Payload)
	if err != nil {
		return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "%s", err))
	}
	if p.cap != 0 && cap != p.cap {
		return 0, nil, core.EncodeInvokeError(method, core.Errorf(core.CodeDenied, method, "capability required"))
	}
	ctx, cancel := core.ServeContext(context.Background(), &req.Frame.Envelope)
	defer cancel()
	finish := func(error) {}
	if req.Frame.Envelope.Trace != 0 {
		// The broadcast to members derives from this ctx, so each member's
		// delivery round-trip shows up as a child rpc span.
		ctx, finish = p.rt.Tracer().StartSpan(ctx, "replica.apply:"+method, p.rt.Where())
	}
	results, errPayload := p.applyWrite(ctx, req.From, method, args, req.Frame.Payload)
	if errPayload != nil {
		finish(core.DecodeInvokeError(errPayload))
		return 0, nil, errPayload
	}
	finish(nil)
	lowered, err := p.rt.LowerArgs(results)
	if err != nil {
		return 0, nil, core.EncodeInvokeError(method, core.Errorf(core.CodeInternal, method, "%s", err))
	}
	reply, err := core.EncodeResults(lowered)
	if err != nil {
		return 0, nil, core.EncodeInvokeError(method, core.Errorf(core.CodeInternal, method, "%s", err))
	}
	return kindWrite, reply, nil
}

// applyWrite runs one write at the primary: dedup-check, apply to the
// authoritative copy, append to the write-ahead log (durability before
// acknowledgement), push to every replica, and only then return.
// request is the already-encoded request; it is logged and forwarded
// behind the exactly-once identity ctx carries (record), so members and
// WAL replay see the same identity the primary deduped on.
func (p *primary) applyWrite(ctx context.Context, from wire.Addr, method string, args []any, request []byte) ([]any, []byte) {
	sid, cseq := core.SessionFromContext(ctx)
	stamped := sid != 0
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.deposed {
		return nil, errDeposed(method)
	}
	if stamped {
		switch verdict, ent := p.tab.Begin(sid, cseq); verdict {
		case session.Replay:
			// Already applied (possibly by a prior incarnation): answer
			// from the cached reply, no re-execution.
			if ent.IsErr {
				return nil, append([]byte(nil), ent.Payload...)
			}
			results, err := core.DecodeResults(p.rt.Decoder(), ent.Payload)
			if err != nil {
				return nil, core.EncodeInvokeError(method, core.Errorf(core.CodeInternal, method, "replica: replay decode: %s", err))
			}
			return results, nil
		case session.InFlight:
			// mu serializes writes, so a duplicate can only be observed in
			// flight across incarnations (an aborted mark that never
			// cleared). Retryable: the retry re-presents the identity.
			return nil, core.EncodeInvokeError(method, core.Errorf(core.CodeUnavailable, method, "replica: duplicate in flight"))
		case session.Expired:
			return nil, core.EncodeInvokeError(method, core.Errorf(core.CodeSessionExpired, method, "session expired: retry outlived the dedup window; outcome unknown"))
		}
	}
	results, err := p.svc.Invoke(core.WithCaller(ctx, from), method, args)
	if err != nil {
		errPayload := core.EncodeInvokeError(method, err)
		if stamped {
			// The state machine rejected the write without it entering the
			// order: cache the verdict in memory only (nothing to log) so a
			// retransmission sees the same error instead of a re-execution.
			p.tab.Commit(sid, cseq, wire.KindError, true, errPayload)
		}
		return nil, errPayload
	}
	var replyPayload []byte
	if stamped {
		lowered, lerr := p.rt.LowerArgs(results)
		if lerr == nil {
			replyPayload, lerr = core.EncodeResults(lowered)
		}
		if lerr != nil {
			// Deterministically un-encodable reply: cache the failure — a
			// retry must NOT re-apply a write that did mutate state.
			errPayload := core.EncodeInvokeError(method, core.Errorf(core.CodeInternal, method, "%s", lerr))
			p.tab.Commit(sid, cseq, wire.KindError, true, errPayload)
			return nil, errPayload
		}
	}
	epoch, seq := p.seq.Reserve()
	rawPayload := record(sid, cseq, request)
	if err := p.wal.Append(epoch, seq, rawPayload); err != nil {
		// Unlogged writes must not be acknowledged: a crash would lose them.
		if stamped {
			p.tab.Abort(sid, cseq)
		}
		return nil, core.EncodeInvokeError(method, core.Errorf(core.CodeUnavailable, method, "replica wal: %s", err))
	}
	if stamped {
		// Durability order: write record, then dedup record, then ack —
		// so an acked write's identity survives the crash that its state
		// does (via replay), and a successor refuses to re-apply it.
		_ = p.wal.AppendDedup(epoch, seq, sid, cseq, session.Digest(replyPayload))
		p.tab.Commit(sid, cseq, kindWrite, false, replyPayload)
	}
	if err := p.seq.Deliver(ctx, epoch, seq, rawPayload); err != nil {
		if errors.Is(err, group.ErrFenced) {
			// A member has seen a newer epoch: this primary was deposed.
			// Nothing it does from here on may be acknowledged.
			p.deposed = true
			return nil, errDeposed(method)
		}
		// The write is applied at the primary; a broadcast failure means
		// some replica may be behind. Fail loudly so the caller knows.
		// The dedup entry stays: the write is applied and durable here,
		// so a retry of the same identity is answered from cache (the
		// repair loop catches members up from the log).
		return nil, core.EncodeInvokeError(method, core.Errorf(core.CodeUnavailable, method, "replica broadcast: %s", err))
	}
	p.writes++
	if p.snapEvery > 0 && p.writes%p.snapEvery == 0 {
		if state, err := p.snapshotState(); err == nil {
			_ = p.wal.Snapshot(epoch, seq, state)
		}
	}
	return results, nil
}

// snapshotState captures the combined [dedup table][service state] blob
// every state transfer ships (see dedup.go). Caller need not hold mu for
// the table (it locks itself), but consistent captures take it under mu
// like every other snapshot.
func (p *primary) snapshotState() ([]byte, error) {
	svcState, err := p.svc.Snapshot()
	if err != nil {
		return nil, err
	}
	return combineSnapshot(p.tab.Snapshot(), svcState), nil
}

// Sync-reply transfer modes.
const (
	syncOK       = 0 // member is current; nothing to transfer
	syncRecords  = 1 // blob is a log suffix (encodeRecords)
	syncSnapshot = 2 // blob is a full state snapshot
)

// handleSync serves the repair probe: re-admit an evicted member and hand
// it whatever it is missing. Same-epoch members get the log suffix past
// their position when the log still has it; anything else — including
// every cross-epoch rejoin, where the member's tail may have diverged at
// the old epoch's end — gets a full snapshot.
func (p *primary) handleSync(req *rpc.Request) (wire.Kind, []byte, []byte) {
	payload := req.Frame.Payload
	member, n, err := wire.DecodeObjAddr(payload)
	if err != nil {
		return 0, nil, core.EncodeInvokeError("sync", err)
	}
	payload = payload[n:]
	stateEpoch, n, err := wire.Uvarint(payload)
	if err != nil {
		return 0, nil, core.EncodeInvokeError("sync", err)
	}
	payload = payload[n:]
	appliedSeq, _, err := wire.Uvarint(payload)
	if err != nil {
		return 0, nil, core.EncodeInvokeError("sync", err)
	}

	p.mu.Lock()
	if p.deposed {
		p.mu.Unlock()
		return 0, nil, errDeposed("sync")
	}
	epoch := p.seq.Epoch()
	curSeq := p.seq.Seq()
	mode := byte(syncOK)
	var blob []byte
	switch {
	case stateEpoch == epoch && p.seq.HasMember(member):
		// Current member checking in.
	case stateEpoch == epoch:
		// Evicted (or silently dropped) at our own epoch: catch it up from
		// the log if compaction hasn't outrun it.
		if recs, err := p.wal.Suffix(appliedSeq); err == nil {
			mode, blob = syncRecords, encodeRecords(recs)
			p.seq.AddMember(member, appliedSeq)
			p.addToView(member)
			break
		}
		fallthrough
	default:
		state, err := p.snapshotState()
		if err != nil {
			p.mu.Unlock()
			return 0, nil, core.EncodeInvokeError("sync", err)
		}
		mode, blob = syncSnapshot, state
		p.seq.AddMember(member, curSeq)
		p.addToView(member)
	}
	view := encodeView(p.snapshotView())
	p.mu.Unlock()

	reply := []byte{mode}
	reply = wire.AppendUvarint(reply, epoch)
	reply = wire.AppendUvarint(reply, curSeq)
	reply = wire.AppendBytes(reply, blob)
	reply = append(reply, view...)
	return kindSync, reply, nil
}

// onEvict is the sequencer's eviction callback: drop the member from the
// successor-election view. It may run while mu is held by a write, so it
// only touches viewMu.
func (p *primary) onEvict(m wire.ObjAddr) { p.removeFromView(m) }

func (p *primary) addToView(m wire.ObjAddr) {
	p.viewMu.Lock()
	defer p.viewMu.Unlock()
	for _, v := range p.view {
		if v == m {
			return
		}
	}
	p.view = append(p.view, m)
}

func (p *primary) removeFromView(m wire.ObjAddr) {
	p.viewMu.Lock()
	defer p.viewMu.Unlock()
	for i, v := range p.view {
		if v == m {
			p.view = append(p.view[:i], p.view[i+1:]...)
			return
		}
	}
}

func (p *primary) snapshotView() []wire.ObjAddr {
	p.viewMu.Lock()
	defer p.viewMu.Unlock()
	return append([]wire.ObjAddr(nil), p.view...)
}

// replicas reports the current replica count (tests/benches).
func (p *primary) replicas() int { return p.seq.Members() }

// encodeView serializes a join-ordered membership view.
func encodeView(view []wire.ObjAddr) []byte {
	buf := wire.AppendUvarint(nil, uint64(len(view)))
	for _, m := range view {
		buf = wire.AppendObjAddr(buf, m)
	}
	return buf
}

func decodeView(src []byte) ([]wire.ObjAddr, error) {
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return nil, codec.ErrElementCount
	}
	view := make([]wire.ObjAddr, 0, count)
	for i := uint64(0); i < count; i++ {
		m, n, err := wire.DecodeObjAddr(src)
		if err != nil {
			return nil, err
		}
		src = src[n:]
		view = append(view, m)
	}
	return view, nil
}

// encodeRecords serializes a log suffix for a sync reply: count, then
// (seq, payload) per record. The epoch is implicit — a suffix is only
// ever served within one epoch.
func encodeRecords(recs []persist.Record) []byte {
	buf := wire.AppendUvarint(nil, uint64(len(recs)))
	for _, r := range recs {
		buf = wire.AppendUvarint(buf, r.Seq)
		buf = wire.AppendBytes(buf, r.Payload)
	}
	return buf
}

func decodeRecords(src []byte) ([]persist.Record, error) {
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return nil, codec.ErrElementCount
	}
	recs := make([]persist.Record, 0, count)
	for i := uint64(0); i < count; i++ {
		seq, n, err := wire.Uvarint(src)
		if err != nil {
			return nil, err
		}
		src = src[n:]
		payload, n2, err := wire.Bytes(src)
		if err != nil {
			return nil, err
		}
		src = src[n2:]
		recs = append(recs, persist.Record{Seq: seq, Payload: payload})
	}
	return recs, nil
}

// wrapped serves the standard invocation path (plain stub clients): reads
// hit the primary copy; writes enter the ordered write path, so stub
// writers and replicated readers stay coherent.
type wrapped struct {
	p *primary
}

// Invoke implements core.Service.
func (w *wrapped) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	return invokeOnPrimary(ctx, w.p, method, args)
}

// invokeOnPrimary is the in-process invocation path shared by the
// exporter's wrapped service and a promoted proxy.
func invokeOnPrimary(ctx context.Context, p *primary, method string, args []any) ([]any, error) {
	if p.isRead(method) {
		return p.svc.Invoke(ctx, method, args)
	}
	from, _ := core.CallerFrom(ctx)
	lowered, err := p.rt.LowerArgs(args)
	if err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	raw, err := core.EncodeRequest(p.cap, method, lowered)
	if err != nil {
		return nil, core.Errorf(core.CodeInternal, method, "%s", err)
	}
	results, errPayload := p.applyWrite(ctx, from, method, args, raw)
	if errPayload != nil {
		return nil, core.DecodeInvokeError(errPayload)
	}
	return results, nil
}
