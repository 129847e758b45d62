package obs

import (
	"fmt"
	"runtime"

	"repro/internal/wire"
)

// RegisterFastPathMetrics surfaces invocation fast-path health in reg as
// computed gauges: the wire frame/payload pool hit rates and the reply
// pool's (a cold pool, a leak or a consumer that stopped releasing its
// replies shows up as a rate stuck near zero) and, when ops is non-nil, a
// process-wide allocations-per-operation estimate — cumulative heap
// allocations (runtime.MemStats.Mallocs) divided by the operation count,
// so a regression on the zero-allocation path drags the quotient up.
// The estimate includes startup allocation, so it converges on the true
// per-op cost only as the operation count grows; it is a health signal,
// not a benchmark (the repository benchmark, benchmark/, measures
// allocations per operation).
func RegisterFastPathMetrics(reg *Registry, ops func() uint64) {
	reg.GaugeFunc("wire.pool.frame_hit_rate", func() string {
		return fmt.Sprintf("%.3f", wire.ReadPoolStats().FrameHitRate())
	})
	reg.GaugeFunc("wire.pool.buf_hit_rate", func() string {
		return fmt.Sprintf("%.3f", wire.ReadPoolStats().BufHitRate())
	})
	reg.GaugeFunc("wire.pool.reply_hit_rate", func() string {
		return fmt.Sprintf("%.3f", wire.ReadPoolStats().ReplyHitRate())
	})
	if ops == nil {
		return
	}
	reg.GaugeFunc("proc.allocs_per_op", func() string {
		n := ops()
		if n == 0 {
			return "0"
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return fmt.Sprintf("%.1f", float64(ms.Mallocs)/float64(n))
	})
}
