// Package group implements process-group communication: membership plus
// sequencer-based totally-ordered broadcast. One context runs the
// Sequencer; any number of Members join it. Every broadcast is assigned a
// sequence number by the sequencer and delivered to all members in
// sequence order, regardless of network reordering — the delivery
// machinery buffers gaps. The replication layer (internal/replica) builds
// state-machine replication directly on this.
//
// The sequencer role is recoverable: each sequencer incarnation carries an
// epoch number stamped on every delivery, and a successor reassumes the
// role with NewSequencer(WithEpoch(old+1), WithStartSeq(seq)). Members
// remember the epoch they joined under and fence deliveries from older
// epochs (the deposed sequencer sees ErrFenced and must not acknowledge
// the broadcast to its caller), while deliveries from newer epochs are
// refused as ordinary errors until the member has resynchronized — so an
// epoch change forces every member through an explicit rejoin, which is
// where the replica layer runs state transfer.
package group

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// Protocol kinds. They are exported so a service may implement the
// sequencer's join side itself (internal/replica's primary does: its
// replicated proxies join it as ordinary group members).
const (
	// KindJoin asks to join the group; the reply is EncodeJoinReply data.
	KindJoin = wire.KindCustom + 30
	// KindLeave departs the group.
	KindLeave = wire.KindCustom + 31
	// KindBcast asks the sequencer to order and deliver a payload.
	KindBcast = wire.KindCustom + 32
	// KindDeliver carries one ordered payload to a member.
	KindDeliver = wire.KindCustom + 33
)

// Errors returned by the group layer.
var (
	// ErrNotMember reports an operation before Join or after Leave.
	ErrNotMember = errors.New("group: not a member")
	// ErrFenced reports a broadcast refused because a member has seen a
	// newer sequencer epoch: this sequencer was deposed. The broadcast
	// must not be acknowledged to its caller.
	ErrFenced = errors.New("group: fenced: sequencer epoch is stale")
)

// defaultDeliverTimeout bounds one member's acknowledgement of a delivery
// unless WithDeliverTimeout overrides it.
const defaultDeliverTimeout = 5 * time.Second

// SequencerOption configures a Sequencer.
type SequencerOption func(*Sequencer)

// WithDeliverTimeout overrides how long the sequencer waits for one
// member to acknowledge a delivery before suspecting it dead (default 5s;
// tests shrink it to exercise eviction quickly).
func WithDeliverTimeout(d time.Duration) SequencerOption {
	return func(s *Sequencer) {
		if d > 0 {
			s.deliverTimeout = d
		}
	}
}

// WithOnJoin installs a callback invoked (under the sequencer lock)
// whenever a member joins; its return value is handed to the joiner as
// bootstrap state (the replica layer ships a state snapshot this way). The
// uint64 is the sequence number the snapshot corresponds to.
func WithOnJoin(fn func(member wire.ObjAddr) (uint64, []byte, error)) SequencerOption {
	return func(s *Sequencer) { s.onJoin = fn }
}

// WithOnEvict installs a callback invoked (under no locks) whenever the
// sequencer drops a member for failing to acknowledge a delivery. The
// replica layer uses it to announce the eviction to surviving members.
func WithOnEvict(fn func(member wire.ObjAddr)) SequencerOption {
	return func(s *Sequencer) { s.onEvict = fn }
}

// WithEpoch sets the sequencer's epoch. A brand-new group starts at epoch
// 1 (the default); a successor taking over a group whose previous
// sequencer died must start at a strictly higher epoch than its
// predecessor so the predecessor's in-flight deliveries are fenced.
func WithEpoch(epoch uint64) SequencerOption {
	return func(s *Sequencer) {
		if epoch > 0 {
			s.epoch = epoch
		}
	}
}

// WithStartSeq sets the last-assigned sequence number, so a reassumed
// sequencer continues the group's single sequence instead of restarting
// from zero (sequence numbers are global across epochs).
func WithStartSeq(seq uint64) SequencerOption {
	return func(s *Sequencer) { s.seq = seq }
}

// memberState is the sequencer's per-member bookkeeping.
type memberState struct {
	// acked is the highest sequence number the member has acknowledged.
	acked uint64
}

// Sequencer orders broadcasts for one group. Register its Handler in a
// kernel context and hand out its address.
type Sequencer struct {
	rt             *core.Runtime
	onJoin         func(wire.ObjAddr) (uint64, []byte, error)
	onEvict        func(wire.ObjAddr)
	deliverTimeout time.Duration
	epoch          uint64

	mu      sync.Mutex
	seq     uint64
	members map[wire.ObjAddr]*memberState

	srv *rpc.Server
	id  wire.ObjectID
}

// NewSequencer creates a sequencer and registers its control object in
// rt's context.
func NewSequencer(rt *core.Runtime, opts ...SequencerOption) *Sequencer {
	s := &Sequencer{
		rt:             rt,
		members:        make(map[wire.ObjAddr]*memberState),
		deliverTimeout: defaultDeliverTimeout,
		epoch:          1,
	}
	for _, o := range opts {
		o(s)
	}
	s.srv = rpc.NewServer(rpc.HandlerFunc(s.handle))
	s.id = rt.Kernel().Register(s.srv)
	return s
}

// Addr is the sequencer's control address, which members join.
func (s *Sequencer) Addr() wire.ObjAddr {
	return wire.ObjAddr{Addr: s.rt.Addr(), Object: s.id}
}

// Members reports the current membership size.
func (s *Sequencer) Members() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// Seq reports the last assigned sequence number.
func (s *Sequencer) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Epoch reports the sequencer's epoch (fixed for its lifetime).
func (s *Sequencer) Epoch() uint64 {
	return s.epoch
}

// MemberSeqs reports, per member, the highest sequence number it has
// acknowledged — the group's replication lag at a glance.
func (s *Sequencer) MemberSeqs() map[wire.ObjAddr]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[wire.ObjAddr]uint64, len(s.members))
	for m, st := range s.members {
		out[m] = st.acked
	}
	return out
}

func (s *Sequencer) handle(req *rpc.Request) (wire.Kind, []byte, []byte) {
	switch req.Kind {
	case KindJoin:
		member, _, err := wire.DecodeObjAddr(req.Frame.Payload)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("join", err)
		}
		var bootSeq uint64
		var boot []byte
		s.mu.Lock()
		if s.onJoin == nil {
			bootSeq = s.seq
			s.members[member] = &memberState{acked: bootSeq}
			s.mu.Unlock()
		} else {
			// Hold the lock across the snapshot so no broadcast can slip
			// between the snapshot's sequence point and membership.
			var err error
			bootSeq, boot, err = s.onJoin(member)
			if err != nil {
				s.mu.Unlock()
				return 0, nil, core.EncodeInvokeError("join", err)
			}
			s.members[member] = &memberState{acked: bootSeq}
			s.mu.Unlock()
		}
		reply, err := EncodeJoinReply(s.epoch, bootSeq, boot, nil)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("join", err)
		}
		return KindJoin, reply, nil
	case KindLeave:
		member, _, err := wire.DecodeObjAddr(req.Frame.Payload)
		if err != nil {
			return 0, nil, core.EncodeInvokeError("leave", err)
		}
		s.mu.Lock()
		delete(s.members, member)
		s.mu.Unlock()
		return KindLeave, nil, nil
	case KindBcast:
		seq, err := s.Broadcast(context.Background(), req.Frame.Payload)
		if err != nil {
			if errors.Is(err, ErrFenced) {
				err = core.Errorf(core.CodeFenced, "bcast", "%s", err)
			}
			return 0, nil, core.EncodeInvokeError("bcast", err)
		}
		return KindBcast, wire.AppendUvarint(nil, seq), nil
	default:
		return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "group: unexpected kind %v", req.Kind))
	}
}

// Reserve assigns the next sequence number without delivering anything.
// The caller is expected to make the payload durable (write-ahead log)
// and then fan it out with Deliver; Broadcast composes the two for
// callers without a durability step.
func (s *Sequencer) Reserve() (epoch, seq uint64) {
	s.mu.Lock()
	s.seq++
	seq = s.seq
	s.mu.Unlock()
	return s.epoch, seq
}

// Broadcast assigns the next sequence number to payload and delivers it to
// every member, blocking until all reachable members acknowledge. Members
// that fail to acknowledge within the delivery timeout are dropped from
// the group (fail-stop suspicion).
func (s *Sequencer) Broadcast(ctx context.Context, payload []byte) (uint64, error) {
	epoch, seq := s.Reserve()
	if err := s.Deliver(ctx, epoch, seq, payload); err != nil {
		return 0, err
	}
	return seq, nil
}

// Deliver fans a reserved (epoch, seq, payload) out to every member,
// blocking until all reachable members acknowledge. Members that fail to
// acknowledge within the delivery timeout are dropped from the group
// (fail-stop suspicion) and reported to the WithOnEvict callback.
//
// If any member fences the delivery — it has seen a newer epoch, meaning
// this sequencer was deposed — Deliver returns ErrFenced, evicts nobody
// (the deposed sequencer's suspicions carry no authority), and the caller
// must not acknowledge the operation to its client.
func (s *Sequencer) Deliver(ctx context.Context, epoch, seq uint64, payload []byte) error {
	s.mu.Lock()
	targets := make([]wire.ObjAddr, 0, len(s.members))
	for m := range s.members {
		targets = append(targets, m)
	}
	s.mu.Unlock()

	msg, err := deliverMessage(epoch, seq, payload)
	if err != nil {
		return fmt.Errorf("group: encode deliver: %w", err)
	}
	// Deliveries are the mesh's own traffic: a member whose admission
	// controller shed them under user load would stall the group and get
	// itself evicted. High priority exempts them from shedding.
	high := wire.Envelope{Priority: wire.PriorityHigh}
	var wg sync.WaitGroup
	var failedMu sync.Mutex
	var failed []wire.ObjAddr
	var fenced bool
	for _, m := range targets {
		wg.Add(1)
		go func(m wire.ObjAddr) {
			defer wg.Done()
			dctx, cancel := context.WithTimeout(ctx, s.deliverTimeout)
			defer cancel()
			if _, err := s.rt.Client().CallEnvelope(dctx, m, KindDeliver, high, msg); err != nil {
				failedMu.Lock()
				if isFenced(err) {
					fenced = true
				} else {
					failed = append(failed, m)
				}
				failedMu.Unlock()
				return
			}
			s.mu.Lock()
			if st, ok := s.members[m]; ok && seq > st.acked {
				st.acked = seq
			}
			s.mu.Unlock()
		}(m)
	}
	wg.Wait()
	if fenced {
		return ErrFenced
	}
	if len(failed) > 0 {
		s.mu.Lock()
		for _, m := range failed {
			delete(s.members, m)
		}
		s.mu.Unlock()
		if s.onEvict != nil {
			for _, m := range failed {
				s.onEvict(m)
			}
		}
	}
	return nil
}

// isFenced reports whether a delivery error is a member's epoch fence.
func isFenced(err error) bool {
	var ie *core.InvokeError
	return errors.As(core.RemoteToInvokeError("deliver", err), &ie) && ie.Code == core.CodeFenced
}

// MemberOption configures a Member.
type MemberOption func(*Member)

// WithRequestHandler installs a handler for non-KindDeliver requests
// arriving at the member's delivery object. The replica layer serves
// repair-protocol queries (who is the primary?) on the member object this
// way, so the membership view doubles as a directory of peers.
func WithRequestHandler(fn func(req *rpc.Request) (wire.Kind, []byte, []byte)) MemberOption {
	return func(m *Member) { m.reqHandler = fn }
}

// Member is one group participant: it registers a delivery object, joins
// the sequencer, and hands ordered payloads to the deliver callback.
// The callback runs on the delivery path, one payload at a time, in
// sequence order.
type Member struct {
	rt         *core.Runtime
	seqAddr    wire.ObjAddr
	deliver    func(seq uint64, payload []byte)
	reqHandler func(req *rpc.Request) (wire.Kind, []byte, []byte)

	// deliverMu serializes the drain-and-callback path so payloads reach
	// the callback strictly in sequence order even when deliveries race.
	deliverMu sync.Mutex

	mu      sync.Mutex
	epoch   uint64
	next    uint64 // next sequence number to deliver
	pending map[uint64][]byte
	paused  bool
	joined  bool
	id      wire.ObjectID

	delivered uint64
	buffered  uint64
	fenced    uint64
}

// JoinInfo is what the sequencer (or a service fronting one) handed a
// joining member: the epoch it joined under, the sequence point of the
// bootstrap state, the bootstrap blob itself, and a service-defined extra
// blob (the replica layer ships the membership view there).
type JoinInfo struct {
	Epoch   uint64
	BootSeq uint64
	Boot    []byte
	Extra   []byte
}

// Join creates a member, registers its delivery object, and joins the
// group at seqAddr. The returned JoinInfo carries the bootstrap state the
// sequencer's WithOnJoin callback produced (nil without one). deliver
// receives every broadcast ordered by sequence number, starting after the
// bootstrap point.
func Join(ctx context.Context, rt *core.Runtime, seqAddr wire.ObjAddr, deliver func(seq uint64, payload []byte), opts ...MemberOption) (*Member, JoinInfo, error) {
	m := &Member{
		rt:      rt,
		seqAddr: seqAddr,
		deliver: deliver,
		pending: make(map[uint64][]byte),
	}
	for _, o := range opts {
		o(m)
	}
	srv := rpc.NewServer(rpc.HandlerFunc(m.handleDeliver))
	m.id = rt.Kernel().Register(srv)
	self := wire.ObjAddr{Addr: rt.Addr(), Object: m.id}

	reply, err := rt.Client().Call(ctx, seqAddr, KindJoin, wire.AppendObjAddr(nil, self))
	if err != nil {
		rt.Kernel().Unregister(m.id)
		return nil, JoinInfo{}, fmt.Errorf("group: join: %w", err)
	}
	info, err := DecodeJoinReply(reply)
	if err != nil {
		rt.Kernel().Unregister(m.id)
		return nil, JoinInfo{}, err
	}
	m.mu.Lock()
	m.epoch = info.Epoch
	m.next = info.BootSeq + 1
	m.joined = true
	m.mu.Unlock()
	return m, info, nil
}

// Self is the member's delivery address (its group identity).
func (m *Member) Self() wire.ObjAddr {
	return wire.ObjAddr{Addr: m.rt.Addr(), Object: m.id}
}

// Epoch reports the sequencer epoch the member currently accepts.
func (m *Member) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Pause prepares the member for out-of-band state transfer under epoch:
// deliveries from older epochs are fenced, and deliveries at epoch are
// acknowledged and buffered without being applied, so nothing touches the
// local state while it is being replaced. ResumeAt ends the pause.
func (m *Member) Pause(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch > m.epoch {
		m.epoch = epoch
	}
	m.paused = true
}

// ResumeAt completes out-of-band state transfer: fn (if non-nil) runs
// under the delivery lock — that is where the caller restores a snapshot
// or applies a log suffix without racing a live delivery — and then the
// member accepts epoch and expects the sequence after afterSeq next.
// With rewind the position is set exactly (full-snapshot transfer: the
// restored state IS the state at afterSeq, even if this member had
// applied a divergent tail beyond it); without it the position only moves
// forward (log-suffix catch-up racing live deliveries that may already
// have advanced it). Buffered deliveries at or before the new position
// are discarded; later ones are drained in order.
func (m *Member) ResumeAt(epoch, afterSeq uint64, rewind bool, fn func()) {
	m.deliverMu.Lock()
	defer m.deliverMu.Unlock()
	if fn != nil {
		fn()
	}
	m.mu.Lock()
	if epoch > m.epoch {
		m.epoch = epoch
	}
	if rewind || afterSeq+1 > m.next {
		m.next = afterSeq + 1
	}
	m.paused = false
	for seq := range m.pending {
		if seq < m.next {
			delete(m.pending, seq)
		}
	}
	var ready [][2]any
	for {
		p, ok := m.pending[m.next]
		if !ok {
			break
		}
		delete(m.pending, m.next)
		ready = append(ready, [2]any{m.next, p})
		m.next++
		m.delivered++
	}
	m.mu.Unlock()
	for _, r := range ready {
		m.deliver(r[0].(uint64), r[1].([]byte))
	}
}

// handleDeliver processes one delivery, reordering as needed. Other
// kinds are offered to the WithRequestHandler hook.
func (m *Member) handleDeliver(req *rpc.Request) (wire.Kind, []byte, []byte) {
	if req.Kind != KindDeliver {
		if m.reqHandler != nil {
			return m.reqHandler(req)
		}
		return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "group: unexpected kind %v", req.Kind))
	}
	vals, err := codec.DecodeArgs(req.Frame.Payload)
	if err != nil || len(vals) != 3 {
		return 0, nil, core.EncodeInvokeError("deliver", core.Errorf(core.CodeBadArgs, "deliver", "malformed delivery"))
	}
	epoch, _ := vals[0].(uint64)
	seq, _ := vals[1].(uint64)
	payload, _ := vals[2].([]byte)

	m.deliverMu.Lock()
	defer m.deliverMu.Unlock()

	m.mu.Lock()
	switch {
	case epoch < m.epoch:
		// A deposed sequencer is still delivering: fence it. The distinct
		// code travels back so its Deliver aborts instead of evicting.
		m.fenced++
		cur := m.epoch
		m.mu.Unlock()
		return 0, nil, core.EncodeInvokeError("deliver",
			core.Errorf(core.CodeFenced, "deliver", "group: delivery epoch %d fenced by epoch %d", epoch, cur))
	case epoch > m.epoch:
		// A successor sequencer we have not resynchronized with yet. The
		// stream may have diverged at the epoch boundary, so refuse (an
		// ordinary refusal — we are the stale party, not the sender) until
		// the service layer transfers state and calls ResumeAt.
		cur := m.epoch
		m.mu.Unlock()
		return 0, nil, core.EncodeInvokeError("deliver",
			core.Errorf(core.CodeUnavailable, "deliver", "group: member at epoch %d behind delivery epoch %d", cur, epoch))
	}
	if m.paused {
		// Mid state-transfer: acknowledge and buffer, apply nothing. The
		// transfer's ResumeAt decides what survives — next may even move
		// backwards past seqs this member applied on a divergent tail.
		m.pending[seq] = payload
		m.mu.Unlock()
		return KindDeliver, nil, nil
	}
	if seq < m.next {
		// Duplicate of something already delivered: ack and drop.
		m.mu.Unlock()
		return KindDeliver, nil, nil
	}
	m.pending[seq] = payload
	if seq != m.next {
		m.buffered++
	}
	// Drain everything now in order.
	var ready [][2]any
	for {
		p, ok := m.pending[m.next]
		if !ok {
			break
		}
		delete(m.pending, m.next)
		ready = append(ready, [2]any{m.next, p})
		m.next++
		m.delivered++
	}
	m.mu.Unlock()

	for _, r := range ready {
		m.deliver(r[0].(uint64), r[1].([]byte))
	}
	return KindDeliver, nil, nil
}

// Broadcast sends payload through the sequencer, returning its sequence
// number once every member (including this one) has acknowledged delivery.
func (m *Member) Broadcast(ctx context.Context, payload []byte) (uint64, error) {
	m.mu.Lock()
	joined := m.joined
	m.mu.Unlock()
	if !joined {
		return 0, ErrNotMember
	}
	reply, err := m.rt.Client().Call(ctx, m.seqAddr, KindBcast, payload)
	if err != nil {
		return 0, err
	}
	seq, _, err := wire.Uvarint(reply)
	if err != nil {
		return 0, fmt.Errorf("group: malformed bcast reply: %w", err)
	}
	return seq, nil
}

// Stats reports (delivered in order, arrived out of order and buffered,
// deliveries fenced for carrying a stale epoch).
func (m *Member) Stats() (delivered, buffered, fenced uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered, m.buffered, m.fenced
}

// Leave departs the group and releases the delivery object.
func (m *Member) Leave(ctx context.Context) error {
	m.mu.Lock()
	if !m.joined {
		m.mu.Unlock()
		return ErrNotMember
	}
	m.joined = false
	m.mu.Unlock()
	_, err := m.rt.Client().Call(ctx, m.seqAddr, KindLeave, wire.AppendObjAddr(nil, m.Self()))
	m.rt.Kernel().Unregister(m.id)
	return err
}

// deliverMessage encodes one ordered delivery: [epoch, seq, payload].
func deliverMessage(epoch, seq uint64, payload []byte) ([]byte, error) {
	return codec.Append(nil, []any{epoch, seq, payload})
}

// EncodeJoinReply builds the reply a join handler sends to a joining
// Member: the sequencer epoch, the sequence number its bootstrap state
// corresponds to, the bootstrap blob, and a service-defined extra blob.
// Services that front a sequencer (replica's primary) answer KindJoin
// frames with this.
func EncodeJoinReply(epoch, bootSeq uint64, boot, extra []byte) ([]byte, error) {
	return codec.Append(nil, []any{epoch, bootSeq, boot, extra})
}

// DecodeJoinReply parses an EncodeJoinReply payload.
func DecodeJoinReply(reply []byte) (JoinInfo, error) {
	vals, err := codec.DecodeArgs(reply)
	if err != nil || len(vals) != 4 {
		return JoinInfo{}, fmt.Errorf("group: malformed join reply")
	}
	epoch, _ := vals[0].(uint64)
	bootSeq, _ := vals[1].(uint64)
	boot, _ := vals[2].([]byte)
	extra, _ := vals[3].([]byte)
	return JoinInfo{Epoch: epoch, BootSeq: bootSeq, Boot: boot, Extra: extra}, nil
}

// AddMember inserts a member directly (used by services that handle the
// join protocol themselves and coordinate their own snapshot/sequence
// atomicity before calling this). acked is the sequence point the member
// is known to be caught up to.
func (s *Sequencer) AddMember(m wire.ObjAddr, acked uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.members[m] = &memberState{acked: acked}
}

// HasMember reports whether m is currently in the group.
func (s *Sequencer) HasMember(m wire.ObjAddr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.members[m]
	return ok
}

// RemoveMember deletes a member directly.
func (s *Sequencer) RemoveMember(m wire.ObjAddr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.members, m)
}

// The sequencer and member objects plug straight into the kernel as
// handlers via rpc.Server.
var _ kernel.Handler = (*rpc.Server)(nil)
