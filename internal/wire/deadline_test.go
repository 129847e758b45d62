package wire

import (
	"bytes"
	"testing"
	"time"
)

func TestDeadlineHeaderRoundTrip(t *testing.T) {
	body := []byte("payload")
	p := append(AppendDeadlineHeader(nil, 250*time.Millisecond), body...)
	budget, rest := SplitDeadlineHeader(p)
	if budget != 250*time.Millisecond || !bytes.Equal(rest, body) {
		t.Fatalf("split = (%v, %q)", budget, rest)
	}
	// Non-positive budgets encode nothing.
	if got := AppendDeadlineHeader(nil, 0); len(got) != 0 {
		t.Errorf("zero budget encoded %d bytes", len(got))
	}
	if b, rest := SplitDeadlineHeader(body); b != 0 || !bytes.Equal(rest, body) {
		t.Errorf("headerless split = (%v, %q)", b, rest)
	}
}

func TestRewriteDeadlineHeader(t *testing.T) {
	body := []byte("body")
	p := append(AppendDeadlineHeader(nil, time.Second), body...)

	out := RewriteDeadlineHeader(p, 100*time.Millisecond)
	budget, rest := SplitDeadlineHeader(out)
	if budget != 100*time.Millisecond || !bytes.Equal(rest, body) {
		t.Fatalf("rewritten = (%v, %q)", budget, rest)
	}

	// Headerless payloads come back unchanged (same backing array).
	if got := RewriteDeadlineHeader(body, time.Second); !bytes.Equal(got, body) {
		t.Errorf("headerless rewrite = %q", got)
	}

	// An expired budget is clamped, not dropped: dropping the header would
	// read as "no deadline".
	out = RewriteDeadlineHeader(p, -time.Second)
	budget, rest = SplitDeadlineHeader(out)
	if budget != time.Nanosecond || !bytes.Equal(rest, body) {
		t.Errorf("expired rewrite = (%v, %q), want clamp to 1ns", budget, rest)
	}

	// A truncated field (magic byte, no varint) is left alone.
	junk := []byte{deadlineMagic}
	if got := RewriteDeadlineHeader(junk, time.Second); !bytes.Equal(got, junk) {
		t.Errorf("malformed rewrite = %v", got)
	}
}
