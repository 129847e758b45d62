// Frame and payload-buffer pooling for the invocation fast path.
//
// Ownership rules (see DESIGN.md "Performance"):
//
//   - Only *sender-side* frames are pooled. Both transports copy a frame
//     out of the caller's hands before Send returns (netsim clones at
//     enqueue time, the TCP transport encodes into its write buffer), so
//     a sender may Release a frame as soon as Send has returned.
//   - Inbound frames are never pooled: the kernel's Handler contract
//     gives the receiving handler ownership for as long as it likes, and
//     layers above (rpc reply cache, RemoteError) retain response
//     payloads past the call.
//   - The kernel's pending-response channels follow their own rule
//     (kernel.Context.CancelPending): one is recycled only once it has
//     left the pending table and been drained under that table's lock.
//   - A released frame or buffer must not be touched again; the payload
//     slice handed to a pooled frame is owned by whoever allocated it
//     and is not recycled by Frame.Release.
package wire

import (
	"sync"
	"sync/atomic"
)

var (
	frameGets   atomic.Uint64
	frameMisses atomic.Uint64
	bufGets     atomic.Uint64
	bufMisses   atomic.Uint64
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

// Release zeroes the frame and returns it to the pool. The payload
// slice is dropped, not recycled (it may still be referenced by a
// payload buffer with its own lifecycle).
func (f *Frame) Release() {
	*f = Frame{}
	framePool.Put(f)
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
}

// ReadPoolStats snapshots the global pool counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		FrameGets:   frameGets.Load(),
		FrameMisses: frameMisses.Load(),
		BufGets:     bufGets.Load(),
		BufMisses:   bufMisses.Load(),
	}
}

// FrameHitRate reports the fraction of frame gets served from the pool
// (0 when no gets have happened).
func (s PoolStats) FrameHitRate() float64 { return hitRate(s.FrameGets, s.FrameMisses) }

// BufHitRate reports the fraction of buffer gets served from the pool.
func (s PoolStats) BufHitRate() float64 { return hitRate(s.BufGets, s.BufMisses) }

func hitRate(gets, misses uint64) float64 {
	if gets == 0 {
		return 0
	}
	if misses > gets {
		misses = gets
	}
	return float64(gets-misses) / float64(gets)
}
