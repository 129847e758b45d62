package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// encodeStream encodes frames back to back, as one connection carries them.
func encodeStream(t *testing.T, frames ...*Frame) []byte {
	t.Helper()
	var out []byte
	for _, f := range frames {
		var err error
		if out, err = f.Encode(out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// isPooled reports whether f is the frame a replyFrame holds.
func isPooled(f *Frame) bool { return f.pooled != nil && &f.pooled.Frame == f }

func TestReadInboundPoolsResponsesOnly(t *testing.T) {
	member, err := AppendTrainMember(nil, &Frame{Kind: KindReply, Flags: FlagResponse, ReqID: 5, Payload: []byte("member")})
	if err != nil {
		t.Fatal(err)
	}
	frames := []*Frame{
		{Kind: KindRequest, ReqID: 1, Payload: []byte("request")},
		{Kind: KindReply, Flags: FlagResponse, ReqID: 2, Payload: []byte("reply")},
		{Kind: KindError, Flags: FlagResponse | FlagNoRoute, ReqID: 3, Payload: bytes.Repeat([]byte{0xee}, 16<<10)},
		{Kind: KindTrain, Flags: FlagResponse, Payload: member},
		{Kind: KindCustom + 1, Flags: FlagResponse, ReqID: 4},
	}
	pooled := []bool{false, true, true, false, true}
	br := bufio.NewReader(bytes.NewReader(encodeStream(t, frames...)))
	for i, want := range frames {
		f, err := ReadInbound(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Kind != want.Kind || f.Flags != want.Flags || f.ReqID != want.ReqID || !bytes.Equal(f.Payload, want.Payload) {
			t.Errorf("frame %d = %v, want %v", i, f, want)
		}
		if isPooled(f) != pooled[i] {
			t.Errorf("frame %d (%v): pooled = %v, want %v", i, f, isPooled(f), pooled[i])
		}
		f.Release()
	}
}

// TestPooledReplyCloneIntact reuses a reply frame's buffer, and a train
// member's frame, after cloning them: the clones keep their bytes, and a
// clone, like any copy of a pooled frame, is an ordinary frame whose
// Release leaves the pooled one alone.
func TestPooledReplyCloneIntact(t *testing.T) {
	first := &Frame{Kind: KindReply, Flags: FlagResponse, ReqID: 1, Payload: bytes.Repeat([]byte("a"), 64)}
	second := &Frame{Kind: KindReply, Flags: FlagResponse, ReqID: 2, Payload: bytes.Repeat([]byte("b"), 64)}
	br := bufio.NewReader(bytes.NewReader(encodeStream(t, first, second)))
	f, err := ReadInbound(br)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Clone()
	if c.pooled != nil {
		t.Fatal("Clone of a pooled reply points at its pool entry")
	}
	v := *f
	v.Release()
	if !isPooled(f) || !bytes.Equal(f.Payload, first.Payload) {
		t.Fatalf("releasing a copy of a pooled reply recycled the reply: %v %q", f, f.Payload)
	}
	// What the pool does to a released frame, made certain: the next
	// reply is read into the same buffer.
	n, _, err := peekFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.pooled.read(br, n); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, second.Payload) || !bytes.Equal(c.Payload, first.Payload) || c.ReqID != 1 {
		t.Errorf("after reuse: frame %q, clone %q (#%d)", f.Payload, c.Payload, c.ReqID)
	}
	f.Release()

	train := &Frame{Kind: KindReply, Flags: FlagResponse, ReqID: 3, Payload: []byte("member payload")}
	tb, err := AppendTrainMember(nil, train)
	if err != nil {
		t.Fatal(err)
	}
	var clone Frame
	if _, _, err := ForEachTrainMember(tb, func(m *Frame) {
		g := GetReply(m)
		clone = g.Clone()
		if !isPooled(g) || clone.pooled != nil {
			t.Errorf("member frame pooled = %v; clone points at a pool entry = %v", isPooled(g), clone.pooled != nil)
		}
		g.Release()
	}); err != nil {
		t.Fatal(err)
	}
	for i := range tb {
		tb[i] = 0 // the train's bytes die with it
	}
	if !bytes.Equal(clone.Payload, train.Payload) || clone.ReqID != 3 {
		t.Errorf("member clone = %v %q", &clone, clone.Payload)
	}
}

// TestPooledReplyReleaseKeepsBuffer checks what Release does to a reply
// frame: it keeps its read buffer, unless that outgrew maxPooledBuf, and
// nothing else.
func TestPooledReplyReleaseKeepsBuffer(t *testing.T) {
	for _, size := range []int{16, maxPooledBuf + 1} {
		enc := encodeStream(t, &Frame{Kind: KindReply, Flags: FlagResponse, ReqID: 9, Payload: make([]byte, size)})
		f, err := ReadInbound(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatal(err)
		}
		r := f.pooled
		buf := r.buf
		f.Release()
		keep := size <= maxPooledBuf
		if r.Payload != nil || r.ReqID != 0 || r.pooled != nil || (r.buf != nil) != keep {
			t.Errorf("%d-byte reply after Release: %v, back pointer %v, buffer kept %v (want %v)", size, &r.Frame, r.pooled != nil, r.buf != nil, keep)
		}
		if keep && &r.buf[:1][0] != &buf[:1][0] {
			t.Errorf("%d-byte reply: Release swapped its buffer", size)
		}
	}
}
