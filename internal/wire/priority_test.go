package wire

import (
	"bytes"
	"testing"
	"time"
)

func TestPriorityHeaderRoundTrip(t *testing.T) {
	body := []byte("payload")
	for _, pri := range []Priority{PriorityHigh, PriorityLow} {
		p := append(AppendPriorityHeader(nil, pri), body...)
		got, rest := SplitPriorityHeader(p)
		if got != pri || !bytes.Equal(rest, body) {
			t.Errorf("split(%s) = (%s, %q)", pri, got, rest)
		}
		if e, rest, err := ParseEnvelope(p); err != nil || e != (Envelope{Priority: pri}) || !bytes.Equal(rest, body) {
			t.Errorf("parse(%s) = (%+v, %q, %v)", pri, e, rest, err)
		}
	}
	// Normal priority is the default and writes nothing on the wire.
	if got := AppendPriorityHeader(nil, PriorityNormal); len(got) != 0 {
		t.Errorf("normal priority encoded %d bytes", len(got))
	}
}

// TestPriorityHeaderlessPeers pins the field codec's contract: bytes that
// do not open with a whole priority field — including ones that look
// almost like one — pass through SplitPriorityHeader untouched, and an
// envelope parsed off them carries PriorityNormal or is rejected.
func TestPriorityHeaderlessPeers(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"codec body", []byte{0x01, 0x02, 0x03}},
		{"deadline header first", append(AppendDeadlineHeader(nil, time.Second), 0x01)},
		{"bare magic, truncated", []byte{priorityMagic}},
		{"magic mid-payload", []byte{0x05, priorityMagic, 0x01}},
	}
	for _, tc := range cases {
		if e, _, _ := ParseEnvelope(tc.payload); e.Priority != PriorityNormal {
			t.Errorf("%s: parsed priority = %s, want normal", tc.name, e.Priority)
		}
		pri, rest := SplitPriorityHeader(tc.payload)
		if pri != PriorityNormal || !bytes.Equal(rest, tc.payload) {
			t.Errorf("%s: split = (%s, %q), want untouched", tc.name, pri, rest)
		}
	}
}

func TestPriorityString(t *testing.T) {
	for pri, want := range map[Priority]string{
		PriorityNormal: "normal",
		PriorityHigh:   "high",
		PriorityLow:    "low",
		Priority(9):    "priority(?)",
	} {
		if got := pri.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", pri, got, want)
		}
	}
}

// TestDeadlineBehindPriority covers the field ordering contract: the
// priority field travels first, and the envelope parser finds the
// deadline behind it.
func TestDeadlineBehindPriority(t *testing.T) {
	body := []byte("body")
	p := AppendPriorityHeader(nil, PriorityHigh)
	p = AppendDeadlineHeader(p, time.Second)
	p = append(p, body...)

	if e, _, err := ParseEnvelope(p); err != nil || e.Budget != time.Second {
		t.Fatalf("deadline behind priority not found: %+v, %v", e, err)
	}
	if e, _, err := ParseEnvelope(AppendPriorityHeader(nil, PriorityLow)); err != nil || e.Budget != 0 {
		t.Errorf("priority-only envelope claims a deadline: %+v, %v", e, err)
	}

	out := RewriteDeadlineHeader(p, 100*time.Millisecond)
	pri, rest := SplitPriorityHeader(out)
	if pri != PriorityHigh {
		t.Fatalf("rewrite dropped the priority header: %s", pri)
	}
	budget, rest := SplitDeadlineHeader(rest)
	if budget != 100*time.Millisecond || !bytes.Equal(rest, body) {
		t.Fatalf("rewrite behind priority = (%v, %q)", budget, rest)
	}
}

func TestPushbackRoundTrip(t *testing.T) {
	p := AppendPushback(nil, 25*time.Millisecond)
	if got := DecodePushback(p); got != 25*time.Millisecond {
		t.Errorf("decode = %s, want 25ms", got)
	}
	// Negative hints clamp to zero; malformed and empty payloads read as
	// "no hint" rather than failing.
	if got := DecodePushback(AppendPushback(nil, -time.Second)); got != 0 {
		t.Errorf("negative hint decoded as %s", got)
	}
	if got := DecodePushback(nil); got != 0 {
		t.Errorf("empty payload decoded as %s", got)
	}
	if got := DecodePushback([]byte{0x80}); got != 0 {
		t.Errorf("truncated varint decoded as %s", got)
	}
}
