package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/quick"
)

func sampleFrame() Frame {
	return Frame{
		Kind:    KindRequest,
		Flags:   FlagRetransmit,
		ReqID:   0xdeadbeef,
		Src:     Addr{Node: 1, Context: 2},
		Dst:     Addr{Node: 3, Context: 4},
		Object:  99,
		Payload: []byte("the payload"),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	buf, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != f.EncodedLen() {
		t.Errorf("EncodedLen = %d, wrote %d", f.EncodedLen(), len(buf))
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("Decode consumed %d of %d", n, len(buf))
	}
	if got.Kind != f.Kind || got.Flags != f.Flags || got.ReqID != f.ReqID ||
		got.Src != f.Src || got.Dst != f.Dst || got.Object != f.Object ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", got, f)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	roundTrip := func(kind uint8, flags uint16, reqID uint64, sn, sc, dn, dc uint32, obj uint64, env Envelope, payload []byte) bool {
		f := Frame{
			Envelope: env,
			Kind:     Kind(kind),
			Flags:    flags,
			ReqID:    reqID,
			Src:      Addr{Node: NodeID(sn), Context: ContextID(sc)},
			Dst:      Addr{Node: NodeID(dn), Context: ContextID(dc)},

			Object:  ObjectID(obj),
			Payload: payload,
		}
		buf, err := f.Encode(nil)
		if err != nil {
			return false
		}
		got, n, err := Decode(buf)
		// FlagEnvelope exists only on the wire, and an envelope comes back
		// without what its zero fields could not carry.
		return err == nil && n == len(buf) && n == f.EncodedLen() &&
			got.Kind == f.Kind && got.Flags == f.Flags&^FlagEnvelope && got.ReqID == f.ReqID &&
			got.Src == f.Src && got.Dst == f.Dst && got.Object == f.Object &&
			got.Envelope == canon(env) && bytes.Equal(got.Payload, f.Payload)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameCorruption(t *testing.T) {
	f := sampleFrame()
	buf, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any single byte must be detected (magic, version, or CRC error).
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x01
		if _, _, err := Decode(mut); err == nil {
			// A flipped payload-length byte may shorten the frame below
			// its real size; that also must fail, so reaching here is a bug.
			t.Errorf("Decode accepted frame with byte %d flipped", i)
		}
	}
}

func TestFrameDecodeShort(t *testing.T) {
	f := sampleFrame()
	buf, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); err == nil {
			t.Errorf("Decode accepted %d-byte prefix of %d-byte frame", i, len(buf))
		}
	}
}

func TestFrameBadMagicAndVersion(t *testing.T) {
	f := sampleFrame()
	buf, _ := f.Encode(nil)
	bad := append([]byte(nil), buf...)
	bad[0] = 0x00
	if _, _, err := Decode(bad); err != ErrBadMagic {
		t.Errorf("bad magic: got %v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), buf...)
	bad[2] = 99
	if _, _, err := Decode(bad); err != ErrBadVersion {
		t.Errorf("bad version: got %v, want ErrBadVersion", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	f := Frame{Kind: KindRequest, Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Encode(nil); err != ErrTooLarge {
		t.Errorf("Encode(oversize) = %v, want ErrTooLarge", err)
	}
}

// chunkReader hands out at most chunk bytes per Read, whatever the
// caller's buffer could hold: chunk 1 is a socket that trickles, a large
// chunk one where several frames arrive in a single read.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data[:min(r.chunk, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

func TestFrameStreamReadWrite(t *testing.T) {
	frames := []Frame{
		sampleFrame(),
		{Kind: KindReply, ReqID: 7, Payload: nil},
		{Kind: KindCustom + 3, ReqID: 8, Payload: bytes.Repeat([]byte{0x55}, 4096)},
		{Kind: KindReply, ReqID: 9, Payload: []byte("tail")},
	}
	var stream bytes.Buffer
	for i := range frames {
		buf, err := frames[i].Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(buf)
	}
	for _, tc := range []struct {
		name       string
		chunk, buf int
	}{
		{"one byte per read", 1, 4096},
		{"several frames per read", stream.Len(), 1 << 16},
		{"frame larger than the read buffer", 1000, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReaderSize(&chunkReader{data: stream.Bytes(), chunk: tc.chunk}, tc.buf)
			var got []Frame
			for i := range frames {
				f, err := ReadFrame(br)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if f.Kind != frames[i].Kind || f.ReqID != frames[i].ReqID ||
					!bytes.Equal(f.Payload, frames[i].Payload) {
					t.Errorf("frame %d mismatch", i)
				}
				got = append(got, f)
			}
			if _, err := ReadFrame(br); err != io.EOF {
				t.Errorf("ReadFrame on drained stream = %v, want io.EOF", err)
			}
			// Each frame owns its bytes: reading later frames through the
			// same buffer must not have disturbed earlier ones.
			for i := range frames {
				if !bytes.Equal(got[i].Payload, frames[i].Payload) {
					t.Errorf("frame %d payload changed after later reads", i)
				}
			}
		})
	}
}

func TestReadFrameTruncated(t *testing.T) {
	good := frameSeed(t)
	for _, n := range []int{1, headerLen - 1, headerLen, len(good) - 1} {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(good[:n])))
		if err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %d of %d bytes: %v, want io.ErrUnexpectedEOF", n, len(good), err)
		}
	}
}

func TestFrameClone(t *testing.T) {
	f := sampleFrame()
	c := f.Clone()
	f.Payload[0] = 'X'
	if c.Payload[0] == 'X' {
		t.Error("Clone shares payload storage with original")
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindRequest:    "request",
		KindInvalidate: "invalidate",
		KindCustom:     "custom+0",
		KindCustom + 5: "custom+5",
		Kind(40):       "kind(40)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	f := sampleFrame()
	f.Payload = bytes.Repeat([]byte{0xaa}, 1024)
	buf := make([]byte, 0, f.EncodedLen())
	b.SetBytes(int64(f.EncodedLen()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = f.Encode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	f := sampleFrame()
	f.Payload = bytes.Repeat([]byte{0xaa}, 1024)
	buf, _ := f.Encode(nil)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrame times the stream path a socket's bytes take — peek
// the header, one exact-size allocation, CRC — at null-call's frame size
// and at bulk-call's.
func BenchmarkReadFrame(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f := sampleFrame()
			f.Payload = bytes.Repeat([]byte{0xaa}, size)
			buf, _ := f.Encode(nil)
			rd := bytes.NewReader(buf)
			br := bufio.NewReaderSize(rd, 32<<10)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(buf)
				br.Reset(rd)
				if _, err := ReadFrame(br); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	// Hostile input of any shape must produce an error, never a panic or
	// an out-of-range read.
	check := func(data []byte) bool {
		f, n, err := Decode(data)
		if err != nil {
			return n == 0
		}
		return n > 0 && len(f.Payload) <= len(data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// And near-valid input: corrupt a real frame at random offsets with
	// random values (quick only generates short slices by default).
	f := sampleFrame()
	buf, _ := f.Encode(nil)
	mut := func(off uint16, val byte) bool {
		b := append([]byte(nil), buf...)
		b[int(off)%len(b)] = val
		_, _, _ = Decode(b)
		return true
	}
	if err := quick.Check(mut, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
