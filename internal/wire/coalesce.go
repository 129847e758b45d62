// Per-destination outbound coalescer: the sender side of frame trains.
//
// The flush policy is adaptive, Nagle-style, with no timers on the hot
// path. Each destination runs in one of two modes:
//
//   - Inline (the default): Send transmits the frame immediately,
//     frame-at-a-time, exactly as an unwrapped transport would. A lone
//     frame is never delayed at all and its send error propagates to the
//     caller.
//   - Staged (under load): Send appends the already-encoded frame to the
//     destination's train buffer. A train is cut as soon as it is worth a
//     syscall: the sender that stages the 2nd frame of a burst emits
//     that KindTrain container itself, at once — one header/CRC/
//     transport-send amortized across its members — and the next cuts of
//     the same burst come at 4, 8 … MaxFrames staged frames, so heavy
//     fan-in keeps its amortisation while the peer starts work on the
//     first members instead of idling until the whole burst has landed.
//     What no cut takes, the destination's flusher goroutine sweeps: it
//     lingers one scheduler turn, drains until the buffer runs dry and
//     puts the threshold back to 2. The delay a staged frame can see is
//     one flusher wakeup, the same scheduling latency any channel
//     handoff pays, so coalescing trades no unbounded latency for its
//     batching.
//
// Per destination at most one goroutine emits at a time (destQueue.emit)
// and it takes the whole staging buffer, so frames leave in staging
// order: a cut that finds an emission in progress just stages. And no
// staged frame is without an owner: the frame that starts an empty buffer
// wakes the flusher, which waits out the emission and drains what was
// staged behind it.
//
// Mode selection keys on burstiness, not rate: when concurrent callers
// fan in on one destination, reply completions wake several of them
// together and their next sends land back-to-back, under a couple of
// microseconds apart, so sub-BurstGap gaps dominate the gap stream. A
// lone caller's cadence alternates one short gap (its request, then the
// handler's reply moments later) with the long gap of its full
// request/reply pipeline, so short gaps stay a minority. (A rate average
// cannot tell these apart: on a saturated machine the mean send rate is
// the same either way.) Each destination runs a leaky-bucket counter —
// +1 on a burst gap, -1 otherwise, floored at zero — which drifts down
// under a lone caller and climbs under fan-in; crossing EnterBurst flips
// the queue to staged mode. It leaves staged mode when draining stops
// paying: two consecutive single-member drains prove there is no
// concurrency left to coalesce and the queue reverts to inline, so a
// caller that ends up alone sheds the staging detour within a couple of
// operations.
//
// Trains are only built for destinations that have advertised FlagTrains
// (MarkCapable); everything else passes through untouched, which is the
// whole legacy-compatibility story. Staged sends are best-effort — a
// train that fails to send is counted in SendErrors, and the
// retransmission layer recovers the members — matching the asynchronous
// best-effort contract the transports already give.
package wire

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// CoalescerConfig sizes train assembly. Zero values take the defaults.
type CoalescerConfig struct {
	// MaxFrames caps members per emitted train (default DefaultTrainFrames).
	MaxFrames int
	// MaxBytes caps an emitted train's payload bytes (default
	// DefaultTrainBytes). A frame too large to fit a train alone is sent
	// frame-at-a-time.
	MaxBytes int
	// BurstGap is the inter-send gap at or below which a send counts as
	// bursty (default 2µs — just above the cost of one inline send, so
	// wakeup-driven back-to-back sends register while pipeline-spaced
	// sends do not). EnterBurst is the leaky-bucket level (+1 bursty,
	// -1 otherwise) at which a destination flips to staged mode (default
	// 8: a lone caller's alternating cadence keeps the bucket near zero,
	// while fan-in's bursty majority climbs it within a few operations).
	BurstGap   time.Duration
	EnterBurst int
}

func (c *CoalescerConfig) fill() {
	if c.MaxFrames <= 0 {
		c.MaxFrames = DefaultTrainFrames
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultTrainBytes
	}
	if c.BurstGap <= 0 {
		c.BurstGap = 2 * time.Microsecond
	}
	if c.EnterBurst <= 0 {
		c.EnterBurst = 8
	}
}

// maxStagedBytes bounds how much traffic may pile up behind one flusher;
// past it, new senders bypass staging and go frame-at-a-time rather than
// grow the buffer without limit.
const maxStagedBytes = 1 << 20

// soloExit is how many consecutive single-member drains send a
// destination back to inline mode.
const soloExit = 2

// firstCut is how many staged frames make a burst's first train; every
// further cut of the same burst doubles it, up to MaxFrames.
const firstCut = 2

// destQueue is one destination's train under assembly plus its mode state.
type destQueue struct {
	emit       sync.Mutex // held while staged frames are on their way to the transport
	mu         sync.Mutex
	buf        []byte // staged members, length-prefixed, ready to be a train payload
	spare      []byte // recycled buffer for the next round, swapped in by take
	count      int
	cut        int   // staged frames at which a sender emits the train itself
	staged     bool  // true: Sends stage to the flusher; false: Sends go inline
	last       int64 // monotonic ns of the previous Send
	burst      int   // leaky-bucket burstiness level
	soloStreak int   // consecutive drains that found a single member
	inlineCnt  uint8 // inline sends since the last send-cost sample
	started    bool  // flusher goroutine running
	wake       chan struct{}
}

// Coalescer packs concurrent same-destination frames into trains. One
// Coalescer fronts one transport endpoint; it is safe for concurrent use.
type Coalescer struct {
	local NodeID
	send  func(*Frame) error
	cfg   CoalescerConfig
	epoch time.Time

	dests   sync.Map // NodeID -> *destQueue
	capable sync.Map // NodeID -> struct{}

	stop    chan struct{}
	closed  atomic.Bool
	flushWG sync.WaitGroup

	// ewmaSend tracks the cost of one inline send (ns). The burst-gap
	// threshold scales with it, so a machine running slow (or a race-
	// instrumented build) moves the whole yardstick instead of pushing
	// every gap past a fixed cutoff.
	ewmaSend atomic.Int64

	directSends  atomic.Uint64 // ineligible for trains: incapable dest, urgent, oversized, or train
	inlineSends  atomic.Uint64 // eligible frames sent immediately (queue in inline mode)
	stagedFrames atomic.Uint64
	overflow     atomic.Uint64 // bypassed staging because the buffer hit maxStagedBytes
	soloFlushes  atomic.Uint64 // staged frames that drained alone and went out unwrapped
	trainsSent   atomic.Uint64
	trainFrames  atomic.Uint64
	trainBytes   atomic.Uint64
	flushFull    atomic.Uint64 // train closed because it hit MaxFrames/MaxBytes
	flushDrain   atomic.Uint64 // train closed because the staging buffer ran dry
	flushCut     atomic.Uint64 // train cut by a sender at the burst threshold
	sendErrors   atomic.Uint64 // failed staged sends (members recovered by retransmission)
}

// NewCoalescer returns a coalescer that emits frames — member or train —
// through send. local stamps the Src.Node of emitted train frames. Close
// the coalescer to stop its flusher goroutines.
func NewCoalescer(local NodeID, send func(*Frame) error, cfg CoalescerConfig) *Coalescer {
	cfg.fill()
	return &Coalescer{
		local: local,
		send:  send,
		cfg:   cfg,
		epoch: time.Now(),
		stop:  make(chan struct{}),
	}
}

// Close drains and stops every destination flusher. Staged frames still in
// a buffer are flushed through send before their flusher exits, and a
// sender's cut that is in the transport when Close is called has landed
// when Close returns: the final drain takes the destination's emit lock
// behind it. Only a Send that races Close itself (past the closed check
// before Close set it) can stage or cut afterwards, as it always could
// stage — callers stop sending first.
// Safe to call twice; Sends after Close pass through inline.
func (c *Coalescer) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.stop)
	}
	c.flushWG.Wait()
}

// MarkCapable records that node's transport unpacks trains. Typically
// called when an inbound frame from node carries FlagTrains; the
// load-before-store keeps repeated marking cheap enough to sit on the
// per-frame receive path.
func (c *Coalescer) MarkCapable(node NodeID) {
	if _, ok := c.capable.Load(node); !ok {
		c.capable.Store(node, struct{}{})
	}
}

// Capable reports whether node has been marked train-capable.
func (c *Coalescer) Capable(node NodeID) bool {
	_, ok := c.capable.Load(node)
	return ok
}

// Send transmits f, staging it into a train when the destination is
// train-capable and under fan-in load. f's bytes are copied before Send
// returns, so the caller may release or reuse f immediately — the same
// ownership rule the transports give. Staged sends are best-effort and
// return nil; inline sends propagate the transport's error.
func (c *Coalescer) Send(f *Frame) error {
	if f.Kind == KindTrain || f.Flags&FlagUrgent != 0 ||
		TrainMemberLen(f) > c.cfg.MaxBytes || !c.Capable(f.Dst.Node) || c.closed.Load() {
		c.directSends.Add(1)
		return c.send(f)
	}
	dq := c.queue(f.Dst.Node)

	var now int64
	dq.mu.Lock()
	if !dq.staged {
		// Burst detection only matters in inline mode; once staged, the
		// clock reads are skipped and exit is the flusher's job. The
		// burst-gap yardstick self-calibrates to ~3 inline sends so the
		// detector keeps discriminating when the whole machine slows.
		now = int64(time.Since(c.epoch))
		gap := now - dq.last
		dq.last = now
		th := 3 * c.ewmaSend.Load()
		if min := int64(c.cfg.BurstGap); th < min {
			th = min
		} else if max := 4 * int64(c.cfg.BurstGap); th > max {
			th = max
		}
		if gap <= th {
			dq.burst++
		} else if dq.burst > 0 {
			dq.burst--
		}
		if dq.burst >= c.cfg.EnterBurst {
			dq.staged = true
			dq.burst = 0
			dq.soloStreak = 0
			dq.cut = firstCut
			if !dq.started {
				dq.started = true
				dq.wake = make(chan struct{}, 1)
				c.flushWG.Add(1)
				go c.flusher(f.Dst.Node, dq)
			}
		}
	}
	if !dq.staged {
		sample := dq.inlineCnt&7 == 0
		dq.inlineCnt++
		dq.mu.Unlock()
		c.inlineSends.Add(1)
		if !sample {
			return c.send(f)
		}
		// Every 8th inline send is timed to keep the send-cost EWMA
		// current without putting a second clock read on every send.
		err := c.send(f)
		dur := int64(time.Since(c.epoch)) - now
		ewma := c.ewmaSend.Load()
		c.ewmaSend.Store(ewma + (dur-ewma)/8)
		return err
	}
	if len(dq.buf) >= maxStagedBytes {
		dq.mu.Unlock()
		c.overflow.Add(1)
		return c.send(f)
	}
	// Nested trains and oversized members were excluded above, so this
	// append cannot fail.
	dq.buf, _ = AppendTrainMember(dq.buf, f)
	dq.count++
	// TryLock, not Lock: behind an emission in progress the frame stays
	// staged (the flusher sweeps it once that emission lands), so no
	// sender waits on the transport for another's frames and no train
	// overtakes one.
	if dq.count >= dq.cut && dq.emit.TryLock() {
		pending, n := dq.take()
		if dq.cut *= 2; dq.cut > c.cfg.MaxFrames {
			dq.cut = c.cfg.MaxFrames
		}
		dq.mu.Unlock()
		c.stagedFrames.Add(1)
		c.emitTrains(f.Dst.Node, pending, n, &c.flushCut)
		dq.recycle(pending)
		dq.emit.Unlock()
		return nil
	}
	first := dq.count == 1
	wake := dq.wake
	dq.mu.Unlock()
	c.stagedFrames.Add(1)
	// Only the frame that starts a fresh buffer needs to wake the
	// flusher: it drains until dry, so everything staged after the wake
	// rides along without its own signal.
	if first {
		select {
		case wake <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
	return nil
}

func (c *Coalescer) queue(node NodeID) *destQueue {
	if q, ok := c.dests.Load(node); ok {
		return q.(*destQueue)
	}
	q, _ := c.dests.LoadOrStore(node, &destQueue{})
	return q.(*destQueue)
}

// flusher is one destination's drain loop: woken by stagers, it ships
// everything accumulated and goes back to sleep. On Close it performs a
// final drain so no staged frame is stranded.
func (c *Coalescer) flusher(node NodeID, dq *destQueue) {
	defer c.flushWG.Done()
	for {
		select {
		case <-dq.wake:
			// The wakeup put this goroutine right behind the sender that
			// signaled it; yielding lets every other runnable sender
			// stage its frame first, so the drain picks up the whole
			// burst instead of one solo member. When the staging sender
			// is alone nothing else is runnable and the yield is free —
			// this is the "bounded linger" of the flush policy, priced
			// in scheduler turns rather than timer ticks.
			runtime.Gosched()
			c.drain(node, dq)
		case <-c.stop:
			c.drain(node, dq)
			return
		}
	}
}

// drain emits everything staged for node as trains, looping until the
// staging buffer stays empty.
func (c *Coalescer) drain(node NodeID, dq *destQueue) {
	for {
		dq.emit.Lock() // waits out a sender's cut, then sweeps what staged behind it
		dq.mu.Lock()
		if dq.count == 0 {
			dq.cut = firstCut // the burst is over; the next one starts small
			dq.mu.Unlock()
			dq.emit.Unlock()
			return
		}
		pending, n := dq.take()
		dq.mu.Unlock()

		c.emitTrains(node, pending, n, &c.flushDrain)
		dq.recycle(pending)
		dq.emit.Unlock()
		// Senders that ran while the train was being emitted have staged
		// more; yield once so the rest of the burst lands before the next
		// round, building a full train instead of a fragment. When the
		// buffer is already dry the loop exits above without yielding.
		runtime.Gosched()
	}
}

// take hands the staged members to the caller, who holds dq.emit and
// dq.mu, and leaves an empty buffer behind.
func (dq *destQueue) take() (pending []byte, n int) {
	pending, n = dq.buf, dq.count
	dq.buf, dq.spare = dq.spare, nil
	dq.count = 0
	// Exit detection: an emission of a single member proves the wakeup
	// bought no batching. Two in a row and the destination goes back to
	// inline mode — a lone caller sheds the staging detour within a
	// couple of operations.
	if n == 1 {
		if dq.soloStreak++; dq.soloStreak >= soloExit {
			dq.staged = false
			dq.burst = 0
			dq.soloStreak = 0
		}
	} else {
		dq.soloStreak = 0
	}
	return pending, n
}

// recycle returns an emitted buffer for the next round's staging.
func (dq *destQueue) recycle(pending []byte) {
	if cap(pending) > maxStagedBytes {
		return
	}
	dq.mu.Lock()
	if dq.spare == nil {
		dq.spare = pending[:0]
	}
	dq.mu.Unlock()
}

// emitTrains walks the staged member boundaries and sends contiguous
// chunks as train frames, splitting at the configured caps. Chunks slice
// the staged buffer directly — no member is re-copied. A chunk that holds
// a single member is unwrapped and sent as itself: a train of one would
// cost container overhead and buy nothing. closed counts the train that
// ends the buffer, by what ended it: a sender's cut or the flusher's drain.
func (c *Coalescer) emitTrains(node NodeID, pending []byte, total int, closed *atomic.Uint64) {
	chunkStart, chunkCount := 0, 0
	pos := 0
	for i := 0; i < total; i++ {
		mlen, n, err := Uvarint(pending[pos:])
		if err != nil || uint64(len(pending)-pos-n) < mlen {
			// Impossible unless staging itself is broken; drop the
			// remainder rather than send garbage.
			c.sendErrors.Add(1)
			return
		}
		next := pos + n + int(mlen)
		if chunkCount > 0 && (chunkCount == c.cfg.MaxFrames || next-chunkStart > c.cfg.MaxBytes) {
			if c.sendChunk(node, pending[chunkStart:pos], chunkCount) {
				c.flushFull.Add(1)
			}
			chunkStart, chunkCount = pos, 0
		}
		pos = next
		chunkCount++
	}
	if chunkCount > 0 {
		if c.sendChunk(node, pending[chunkStart:pos], chunkCount) {
			closed.Add(1)
		}
	}
}

// sendChunk ships one contiguous chunk of staged members and reports
// whether it went out as a train (false for the unwrapped solo case).
func (c *Coalescer) sendChunk(node NodeID, payload []byte, members int) bool {
	if members == 1 {
		// Unwrap the lone member and send it as an ordinary frame.
		_, n, err := Uvarint(payload)
		if err == nil {
			var m Frame
			if m, _, err = Decode(payload[n:]); err == nil {
				if serr := c.send(&m); serr != nil {
					c.sendErrors.Add(1)
				} else {
					c.soloFlushes.Add(1)
				}
				return false
			}
		}
		c.sendErrors.Add(1)
		return false
	}
	tf := GetFrame()
	tf.Kind = KindTrain
	tf.Flags = FlagOneWay | FlagTrains
	tf.Src = Addr{Node: c.local}
	tf.Dst = Addr{Node: node}
	tf.Object = KernelObject
	tf.Payload = payload
	err := c.send(tf)
	tf.Release()
	if err != nil {
		c.sendErrors.Add(1)
		return false
	}
	c.trainsSent.Add(1)
	c.trainFrames.Add(uint64(members))
	c.trainBytes.Add(uint64(len(payload)))
	return true
}

// CoalescerStats is a snapshot of one coalescer's counters.
type CoalescerStats struct {
	DirectSends  uint64 // ineligible frame-at-a-time (legacy dest, urgent, oversized)
	InlineSends  uint64 // eligible frames sent immediately (inline mode)
	StagedFrames uint64 // frames handed to a flusher
	Overflow     uint64 // staging bypassed at the buffer bound
	SoloFlushes  uint64 // staged frames that drained alone and went out unwrapped
	TrainsSent   uint64
	TrainFrames  uint64 // members carried by sent trains
	TrainBytes   uint64 // payload bytes carried by sent trains
	FlushFull    uint64 // trains closed at the frames/bytes cap
	FlushDrain   uint64 // trains closed because staging ran dry
	FlushCut     uint64 // trains cut by a sender at the burst threshold
	SendErrors   uint64
}

// AvgFill reports mean members per sent train (0 when none were sent).
func (s CoalescerStats) AvgFill() float64 {
	if s.TrainsSent == 0 {
		return 0
	}
	return float64(s.TrainFrames) / float64(s.TrainsSent)
}

// Stats snapshots the coalescer's counters.
func (c *Coalescer) Stats() CoalescerStats {
	return CoalescerStats{
		DirectSends:  c.directSends.Load(),
		InlineSends:  c.inlineSends.Load(),
		StagedFrames: c.stagedFrames.Load(),
		Overflow:     c.overflow.Load(),
		SoloFlushes:  c.soloFlushes.Load(),
		TrainsSent:   c.trainsSent.Load(),
		TrainFrames:  c.trainFrames.Load(),
		TrainBytes:   c.trainBytes.Load(),
		FlushFull:    c.flushFull.Load(),
		FlushDrain:   c.flushDrain.Load(),
		FlushCut:     c.flushCut.Load(),
		SendErrors:   c.sendErrors.Load(),
	}
}
