// Frame and payload-buffer pooling for the invocation fast path.
//
// Ownership rules (see DESIGN.md "Performance"):
//
//   - Sender-side frames come from GetFrame. Both transports copy a frame
//     out of the caller's hands before Send returns (netsim clones at
//     enqueue time, the TCP transport encodes into its write buffer), so
//     a sender may Release a frame as soon as Send has returned.
//   - An inbound response has exactly one owner: the call waiting for it,
//     or the kernel when no call is (a late reply, a drained waiter).
//     Over TCP it is read into a frame from the reply pool (ReadInbound),
//     and a train's response members are copied into such frames
//     (GetReply); Release recycles the frame with its read buffer. An
//     owner that keeps the frame, or anything aliasing its payload (a
//     RemoteError, a caller of kernel.Context.Call), just never releases
//     it: the frame is garbage, as it was before replies were pooled. A
//     copy of a reply frame (Clone, or *f) is an ordinary frame: its
//     Release never recycles the original.
//   - Inbound requests and trains are never pooled: the kernel's Handler
//     contract gives the receiving handler ownership for as long as it
//     likes.
//   - The kernel's pending-response channels follow their own rule
//     (kernel.Context.CancelPending): one is recycled only once it has
//     left the pending table and been drained under that table's lock.
//   - A released frame or buffer must not be touched again; the payload
//     slice handed to a pooled frame is owned by whoever allocated it
//     and is not recycled by Frame.Release — a reply frame's own read
//     buffer is the one exception.
package wire

import (
	"bufio"
	"sync"
	"sync/atomic"
)

var (
	frameGets   atomic.Uint64
	frameMisses atomic.Uint64
	bufGets     atomic.Uint64
	bufMisses   atomic.Uint64
	replyGets   atomic.Uint64
	replyMisses atomic.Uint64
)

var framePool = sync.Pool{New: func() any {
	frameMisses.Add(1)
	return new(Frame)
}}

// GetFrame returns a zeroed frame from the pool. Callers that cannot
// prove the frame is dead after handoff must simply not Release it —
// an un-released frame is ordinary garbage, never a correctness bug.
func GetFrame() *Frame {
	frameGets.Add(1)
	return framePool.Get().(*Frame)
}

// replyFrame is what the reply pool holds: a frame and the read buffer
// it keeps across Release. Payload aliases buf or, for a train member,
// the train's bytes.
type replyFrame struct {
	Frame
	buf []byte
}

var replyPool = sync.Pool{New: func() any {
	replyMisses.Add(1)
	return new(replyFrame)
}}

func getReply() *replyFrame {
	replyGets.Add(1)
	return replyPool.Get().(*replyFrame)
}

// minReplyBuf is the smallest read buffer a pooled reply grows to, so
// replies that differ by a few bytes keep reusing one buffer.
const minReplyBuf = 512

// read reads the next n bytes of br into r's buffer, growing it when it
// is too small, and decodes them into r's frame. Whatever the buffer held
// before is overwritten, never consulted.
func (r *replyFrame) read(br *bufio.Reader, n int) error {
	if cap(r.buf) < n {
		r.buf = make([]byte, n, max(n, minReplyBuf))
	}
	f, err := readFull(br, r.buf[:n])
	if err != nil {
		return err
	}
	f.pooled = r
	r.Frame = f
	return nil
}

// GetReply returns a frame from the reply pool holding m's fields: its
// Payload aliases m's bytes, which the kernel uses to give each response
// member of a train a frame its waiter may Release. Releasing it
// recycles the frame and its own idle read buffer, never m's bytes.
func GetReply(m *Frame) *Frame {
	r := getReply()
	r.Frame = *m
	r.pooled = r
	return &r.Frame
}

// Release zeroes the frame and returns it to its pool. The payload slice
// is dropped, not recycled (it may still be referenced by a payload
// buffer with its own lifecycle); a reply frame keeps its own read
// buffer unless that has grown past maxPooledBuf.
func (f *Frame) Release() {
	if r := f.pooled; r != nil && &r.Frame == f {
		r.recycle()
		return
	}
	*f = Frame{}
	framePool.Put(f)
}

func (r *replyFrame) recycle() {
	if cap(r.buf) > maxPooledBuf {
		r.buf = nil
	}
	r.Frame = Frame{}
	replyPool.Put(r)
}

// PayloadBuf is a pooled append buffer for building frame payloads.
// Use pattern:
//
//	pb := wire.GetBuf()
//	pb.B = append(pb.B[:0], ...)   // or any encoder that appends
//	... send; transports copy before Send returns ...
//	pb.Release()
type PayloadBuf struct{ B []byte }

// Oversized buffers are dropped rather than pooled so one giant payload
// doesn't pin memory for the lifetime of the pool.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any {
	bufMisses.Add(1)
	return &PayloadBuf{B: make([]byte, 0, 1024)}
}}

// GetBuf returns a length-zero payload buffer from the pool.
func GetBuf() *PayloadBuf {
	bufGets.Add(1)
	return bufPool.Get().(*PayloadBuf)
}

// Release returns the buffer to the pool. Safe on nil.
func (p *PayloadBuf) Release() {
	if p == nil || cap(p.B) > maxPooledBuf {
		return
	}
	p.B = p.B[:0]
	bufPool.Put(p)
}

// PoolStats is a snapshot of pool traffic. A get that the pool could
// not serve from a recycled object counts as a miss (the pool's New
// ran); hit rate = 1 - misses/gets once the pools are warm.
type PoolStats struct {
	FrameGets   uint64
	FrameMisses uint64
	BufGets     uint64
	BufMisses   uint64
	// Reply-pool traffic, kept apart from the sender-side frame pool: a
	// caller that stops releasing its replies drives this rate down.
	ReplyGets   uint64
	ReplyMisses uint64
}

// ReadPoolStats snapshots the global pool counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		FrameGets:   frameGets.Load(),
		FrameMisses: frameMisses.Load(),
		BufGets:     bufGets.Load(),
		BufMisses:   bufMisses.Load(),
		ReplyGets:   replyGets.Load(),
		ReplyMisses: replyMisses.Load(),
	}
}

// FrameHitRate reports the fraction of frame gets served from the pool
// (0 when no gets have happened).
func (s PoolStats) FrameHitRate() float64 { return hitRate(s.FrameGets, s.FrameMisses) }

// BufHitRate reports the fraction of buffer gets served from the pool.
func (s PoolStats) BufHitRate() float64 { return hitRate(s.BufGets, s.BufMisses) }

// ReplyHitRate reports the fraction of inbound responses read into, or
// copied into, a recycled reply frame.
func (s PoolStats) ReplyHitRate() float64 { return hitRate(s.ReplyGets, s.ReplyMisses) }

func hitRate(gets, misses uint64) float64 {
	if gets == 0 {
		return 0
	}
	if misses > gets {
		misses = gets
	}
	return float64(gets-misses) / float64(gets)
}
