package obs_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TestRegisterTrainMetrics wires a live coalescer into a registry and
// checks every gauge resolves: the send-side ones against the coalescer's
// counters after real traffic, the unpack ones against the process-wide
// train counters.
func TestRegisterTrainMetrics(t *testing.T) {
	var sent []*wire.Frame
	co := wire.NewCoalescer(1, func(f *wire.Frame) error {
		sent = append(sent, f)
		return nil
	}, wire.CoalescerConfig{})
	defer co.Close()
	co.MarkCapable(2)

	reg := obs.NewRegistry()
	obs.RegisterTrainMetrics(reg, co)

	// Inline traffic so the counters move.
	for i := 0; i < 3; i++ {
		f := &wire.Frame{Kind: wire.KindRequest, ReqID: uint64(i), Dst: wire.Addr{Node: 2}, Object: 1}
		if err := co.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if len(sent) != 3 {
		t.Fatalf("sent %d frames, want 3", len(sent))
	}

	got := map[string]string{}
	reg.Each(func(kind, name, value string) {
		if kind == "gauge" {
			got[name] = value
		}
	})
	for _, name := range []string{
		"wire.trains.sent", "wire.trains.cut", "wire.trains.avg_fill", "wire.trains.inline_sends",
		"wire.trains.staged_frames", "wire.trains.overflow", "wire.trains.send_errors",
		"wire.trains.unpacked", "wire.trains.members_unpacked", "wire.trains.members_rejected",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("gauge %s not registered (have %v)", name, got)
		}
	}
	if got["wire.trains.inline_sends"] != "3" {
		t.Errorf("inline_sends = %q, want 3", got["wire.trains.inline_sends"])
	}
	if got["wire.trains.sent"] != "0" {
		t.Errorf("trains sent = %q, want 0 for idle inline traffic", got["wire.trains.sent"])
	}
}
