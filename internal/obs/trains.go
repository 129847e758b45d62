package obs

import (
	"fmt"

	"repro/internal/wire"
)

// RegisterTrainMetrics surfaces frame-train health in reg as computed
// gauges. The send side reads the given coalescer's counters — trains
// sent, how many of them a sender cut early instead of leaving to the
// flusher, average fill, the inline/staged split, and the two failure
// shapes worth alerting on (overflow bypasses and send errors). The
// receive side reads the process-wide unpack counters, where a nonzero
// rejected-members rate means peers are shipping corrupt or truncated
// members. Fill is the headline: it approximates frames (syscalls, on a
// real transport) saved per send, and a fill stuck near 1 means the
// coalescer is paying staging cost for no batching win.
func RegisterTrainMetrics(reg *Registry, co *wire.Coalescer) {
	reg.GaugeFunc("wire.trains.sent", func() string {
		return fmt.Sprintf("%d", co.Stats().TrainsSent)
	})
	reg.GaugeFunc("wire.trains.cut", func() string {
		return fmt.Sprintf("%d", co.Stats().FlushCut)
	})
	reg.GaugeFunc("wire.trains.avg_fill", func() string {
		return fmt.Sprintf("%.2f", co.Stats().AvgFill())
	})
	reg.GaugeFunc("wire.trains.inline_sends", func() string {
		return fmt.Sprintf("%d", co.Stats().InlineSends)
	})
	reg.GaugeFunc("wire.trains.staged_frames", func() string {
		return fmt.Sprintf("%d", co.Stats().StagedFrames)
	})
	reg.GaugeFunc("wire.trains.overflow", func() string {
		return fmt.Sprintf("%d", co.Stats().Overflow)
	})
	reg.GaugeFunc("wire.trains.send_errors", func() string {
		return fmt.Sprintf("%d", co.Stats().SendErrors)
	})
	reg.GaugeFunc("wire.trains.unpacked", func() string {
		return fmt.Sprintf("%d", wire.ReadTrainStats().TrainsUnpacked)
	})
	reg.GaugeFunc("wire.trains.members_unpacked", func() string {
		return fmt.Sprintf("%d", wire.ReadTrainStats().MembersUnpacked)
	})
	reg.GaugeFunc("wire.trains.members_rejected", func() string {
		return fmt.Sprintf("%d", wire.ReadTrainStats().MembersRejected)
	})
}
