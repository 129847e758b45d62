package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"
)

var fullEnvelope = Envelope{Priority: PriorityHigh, Session: 5, Seq: 2, Budget: time.Microsecond, Trace: 1, Span: 2}

func envelopedFrame(body []byte) Frame {
	f := sampleFrame()
	f.Envelope, f.Payload = fullEnvelope, body
	return f
}

// TestEnvelopeGoldenBytes pins the encoding: header ‖ F7.. F8.. F6.. F5..
// ‖ body ‖ crc — byte for byte what the same call put on the wire when
// its headers were spliced into the payload, but for the one flag bit
// (and the checksum over it).
func TestEnvelopeGoldenBytes(t *testing.T) {
	body := []byte{0x09, 0x02, 'o', 'k'} // a codec list: tags are 1..13
	f := envelopedFrame(body)
	got, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	fields := []byte{0xF7, 0x01, 0xF8, 0x05, 0x02, 0xF6, 0xE8, 0x07, 0xF5, 0x01, 0x02}
	spliced := f
	spliced.Envelope, spliced.Payload = Envelope{}, append(append([]byte(nil), fields...), body...)
	want, err := spliced.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	want[5] |= byte(FlagEnvelope)
	binary.BigEndian.PutUint32(want[len(want)-trailerLen:], crc32.Checksum(want[:len(want)-trailerLen], crcTable))
	if !bytes.Equal(got, want) {
		t.Fatalf("enveloped frame:\n got %x\nwant %x", got, want)
	}
	if !bytes.Equal(got[headerLen:headerLen+len(fields)], fields) {
		t.Fatalf("envelope bytes = %x, want %x", got[headerLen:headerLen+len(fields)], fields)
	}
	if len(got) != f.EncodedLen() {
		t.Errorf("EncodedLen = %d, wrote %d", f.EncodedLen(), len(got))
	}

	back, _, err := Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if back.Envelope != fullEnvelope || !bytes.Equal(back.Payload, body) || back.Flags != f.Flags {
		t.Errorf("decoded (%+v, %x, flags %#x), want (%+v, %x, flags %#x)",
			back.Envelope, back.Payload, back.Flags, fullEnvelope, body, f.Flags)
	}
}

// TestPayloadOpaque is the property the envelope exists for: whatever a
// payload opens with — the field magics and the end mark included — it
// comes back byte for byte, beside exactly the envelope that was sent.
func TestPayloadOpaque(t *testing.T) {
	envelopes := []Envelope{
		{},
		{Priority: PriorityLow},
		{Session: 248, Seq: 1},
		{Budget: time.Second},
		{Trace: 7, Span: 9},
		fullEnvelope,
	}
	for lead := 0xF3; lead <= 0xF9; lead++ {
		// e.g. F8 01: AppendObjAddr for node 248.
		body := []byte{byte(lead), 0x01, 0x02, 0x03}
		for _, env := range envelopes {
			f := sampleFrame()
			f.Envelope, f.Payload = env, body
			buf, err := f.Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != f.EncodedLen() {
				t.Errorf("%#x under %+v: EncodedLen %d, wrote %d", lead, env, f.EncodedLen(), len(buf))
			}
			if flagged := binary.BigEndian.Uint16(buf[4:])&FlagEnvelope != 0; flagged != !env.isZero() {
				t.Errorf("%#x under %+v: FlagEnvelope = %v", lead, env, flagged)
			}
			got, _, err := Decode(buf)
			if err != nil {
				t.Fatalf("%#x under %+v: %v", lead, env, err)
			}
			if got.Envelope != env || !bytes.Equal(got.Payload, body) {
				t.Errorf("%#x under %+v: decoded (%+v, %x)", lead, env, got.Envelope, got.Payload)
			}
		}
	}
}

// flagged encodes a frame with the given payload bytes and FlagEnvelope
// forced on, as a hostile or broken sender might.
func flagged(t testing.TB, kind Kind, payload string) []byte {
	f := sampleFrame()
	f.Kind, f.Payload = kind, []byte(payload)
	buf, err := f.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf[5] |= byte(FlagEnvelope)
	crcEnd := len(buf) - trailerLen
	if kind == KindTrain {
		crcEnd = headerLen
	}
	binary.BigEndian.PutUint32(buf[len(buf)-trailerLen:], crc32.Checksum(buf[:crcEnd], crcTable))
	return buf
}

func TestDecodeRejectsBadEnvelope(t *testing.T) {
	for name, payload := range map[string]string{
		"no envelope at all":  "body",
		"truncated session":   "\xF8\x85",
		"bare deadline magic": "\xF6",
		"out of order":        "\xF6\x01\xF7\x01body",
		"repeated field":      "\xF7\x01\xF7\x02body",
		"normal priority":     "\xF7\x00body",
		"zero session":        "\xF8\x00\x01body",
		"non-minimal uvarint": "\xF6\x81\x00body",
		"end mark unneeded":   "\xF7\x01\xF4body",
		"end mark, no fields": "\xF4body",
		"budget past int64":   "\xF6\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\x01body",
	} {
		if _, _, err := Decode(flagged(t, KindRequest, payload)); err != ErrBadEnvelope {
			t.Errorf("%s: Decode err = %v, want ErrBadEnvelope", name, err)
		}
	}
	if f, _, err := Decode(flagged(t, KindRequest, "\xF7\x02body")); err != nil || f.Envelope != (Envelope{Priority: PriorityLow}) || string(f.Payload) != "body" {
		t.Errorf("well-formed flagged frame: (%+v, %q, %v)", f.Envelope, f.Payload, err)
	}
}

// TestEnvelopeFrameBookkeeping: the envelope rides the frame by value, so
// everything that copies, recycles or measures a frame covers it.
func TestEnvelopeFrameBookkeeping(t *testing.T) {
	f := envelopedFrame([]byte("body"))
	if c := f.Clone(); c.Envelope != fullEnvelope {
		t.Errorf("Clone dropped the envelope: %+v", c.Envelope)
	}

	p := GetFrame()
	p.Envelope = fullEnvelope
	p.Release()
	for i := 0; i < 8; i++ {
		if g := GetFrame(); g.Envelope != (Envelope{}) {
			t.Fatalf("pooled frame came back with envelope %+v", g.Envelope)
		}
	}

	bare := f
	bare.Envelope = Envelope{}
	if got, want := f.EncodedLen()-bare.EncodedLen(), len(fullEnvelope.Append(nil)); got != want {
		t.Errorf("EncodedLen counts %d envelope bytes, want %d", got, want)
	}
	buf := make([]byte, 0, f.EncodedLen())
	if n := testing.AllocsPerRun(100, func() { buf, _ = f.Encode(buf[:0]); _ = f.EncodedLen() }); n != 0 {
		t.Errorf("EncodedLen + Encode of an enveloped frame allocate %v times", n)
	}
	train, err := AppendTrainMember(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != TrainMemberLen(&f) {
		t.Errorf("TrainMemberLen = %d, member took %d", TrainMemberLen(&f), len(train))
	}
	members, rejected, err := ForEachTrainMember(train, func(m *Frame) {
		if m.Envelope != fullEnvelope || string(m.Payload) != "body" {
			t.Errorf("train member decoded (%+v, %q)", m.Envelope, m.Payload)
		}
	})
	if members != 1 || rejected != 0 || err != nil {
		t.Errorf("walk = (%d, %d, %v)", members, rejected, err)
	}
}
