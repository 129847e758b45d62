package obs

import (
	"bufio"
	"bytes"
	"strconv"
	"testing"

	"repro/internal/wire"
)

// TestFastPathMetricsReplyPool reads replies, releasing each, so later
// ones land in recycled frames (the race detector's pool drops a random
// share of releases, hence more than two): the reply pool's hit rate is
// a gauge of its own, beside the frame and buffer pools'.
func TestFastPathMetricsReplyPool(t *testing.T) {
	reg := NewRegistry()
	RegisterFastPathMetrics(reg, nil)
	enc, err := (&wire.Frame{Kind: wire.KindReply, Flags: wire.FlagResponse, ReqID: 1}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(bytes.Repeat(enc, 20)))
	for i := 0; i < 20; i++ {
		f, err := wire.ReadInbound(br)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	got := map[string]string{}
	reg.Each(func(kind, name, value string) { got[name] = value })
	for _, name := range []string{"wire.pool.frame_hit_rate", "wire.pool.buf_hit_rate", "wire.pool.reply_hit_rate"} {
		if _, ok := got[name]; !ok {
			t.Errorf("gauge %s not registered (have %v)", name, got)
		}
	}
	if rate, err := strconv.ParseFloat(got["wire.pool.reply_hit_rate"], 64); err != nil || rate <= 0 || rate > 1 {
		t.Errorf("wire.pool.reply_hit_rate = %q after a recycled read, want a rate in (0, 1]", got["wire.pool.reply_hit_rate"])
	}
}
