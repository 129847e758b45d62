package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// Fuzz entry point for the frame decoder — the one parser every byte
// from the network passes through. The contract under corruption is
// strict: Decode must never panic, and must never silently accept a
// damaged frame — a flipped bit anywhere in the encoding surfaces as an
// error (usually ErrBadCRC; flips in the first bytes land on
// ErrBadMagic/ErrBadVersion, flips in the length field on
// ErrShortBuffer/ErrTooLarge). Run with e.g.
//
//	go test -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/wire
//
// Seed corpus: a valid encoding plus characteristic corruptions, both
// as f.Add seeds below and as committed files under testdata/fuzz. The
// same contract covers the envelope: a flagged frame is accepted only if
// re-encoding what it parsed to reproduces its bytes.

func frameSeed(t testing.TB) []byte {
	f := Frame{
		Kind:    KindRequest,
		Flags:   FlagUrgent,
		ReqID:   42,
		Src:     Addr{Node: 1, Context: 2},
		Dst:     Addr{Node: 3, Context: 4},
		Object:  ObjectID(0xBEEF),
		Payload: []byte("gray-failure payload"),
	}
	buf, err := f.Encode(make([]byte, 0, f.EncodedLen()))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// readPooled reads data as a reply frame whose buffer first held a
// larger, valid frame of other bytes (the fuzz input may name any kind,
// so the pooled path is driven directly, not through ReadInbound's
// FlagResponse test).
func readPooled(t *testing.T, data []byte) (*Frame, error) {
	t.Helper()
	prev := &Frame{Kind: KindReply, Flags: FlagResponse, ReqID: ^uint64(0), Payload: bytes.Repeat([]byte{0x5a}, len(data)+256)}
	br := bufio.NewReader(bytes.NewReader(encodeStream(t, prev)))
	r := getReply()
	n, _, err := peekFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.read(br, n); err != nil {
		t.Fatal(err)
	}
	br = bufio.NewReader(bytes.NewReader(data))
	if n, _, err = peekFrame(br); err == nil {
		err = r.read(br, n)
	}
	return &r.Frame, err
}

func FuzzDecodeFrame(f *testing.F) {
	good := frameSeed(f)
	f.Add(good)
	f.Add(good[:len(good)/2]) // truncated mid-payload
	flipped := append([]byte(nil), good...)
	flipped[headerLen+3] ^= 0x10 // payload corruption → ErrBadCRC
	f.Add(flipped)
	length := append([]byte(nil), good...)
	length[38] ^= 0xFF // payload length field blown up
	f.Add(length)
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x59, 0x01}) // magic + version, nothing else
	// FlagEnvelope: a good envelope, the flag over bytes that are none,
	// and a flagged member inside a train.
	env := envelopedFrame([]byte("\xF8\x01 opens like a session field"))
	enveloped, err := env.Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enveloped)
	f.Add(flagged(f, KindRequest, "\xF4junk"))
	member, err := AppendTrainMember(nil, &env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flagged(f, KindTrain, string(member)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := Decode(data)
		// The stream reader is the path network bytes actually take to
		// Decode: it must reject exactly what Decode rejects.
		sf, serr := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if (err == nil) != (serr == nil) {
			t.Fatalf("Decode err = %v, ReadFrame err = %v", err, serr)
		}
		// A pooled reply read, into a buffer that first held a larger,
		// different (valid) frame, rejects the same bytes with the same
		// error and accepts the same frame: nothing left in the buffer
		// stands in for bytes the stream lacks.
		pf, perr := readPooled(t, data)
		if perr != serr {
			t.Fatalf("pooled reply read err = %v, ReadFrame err = %v", perr, serr)
		}
		if perr == nil && (pf.Kind != sf.Kind || pf.Flags != sf.Flags || pf.ReqID != sf.ReqID || pf.Src != sf.Src ||
			pf.Dst != sf.Dst || pf.Object != sf.Object || pf.Envelope != sf.Envelope || !bytes.Equal(pf.Payload, sf.Payload)) {
			t.Fatalf("pooled reply read decoded %v, ReadFrame %v", pf, &sf)
		}
		if err != nil {
			return
		}
		if sf.Kind != fr.Kind || sf.ReqID != fr.ReqID || sf.Envelope != fr.Envelope || !bytes.Equal(sf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame decoded %v, Decode %v", &sf, &fr)
		}
		// Accepted input must be self-consistent: the decoder consumed a
		// whole frame, and re-encoding it reproduces those bytes exactly
		// (the CRC leaves no slack for a second valid encoding).
		if n < headerLen+trailerLen || n > len(data) {
			t.Fatalf("accepted frame with bogus length %d of %d", n, len(data))
		}
		out, err := fr.Encode(make([]byte, 0, fr.EncodedLen()))
		if err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("round trip changed bytes:\n got %x\nwant %x", out, data[:n])
		}
	})
}

// FuzzDecodeTrain drives the train-payload walker with arbitrary bytes.
// The walker sits directly on the network path (the kernel feeds it every
// inbound KindTrain payload), so its contract under hostile input is the
// same as Decode's: never panic, never deliver a member that is not a
// fully valid frame, and account for every byte either as a delivered
// member, a rejected member, or a framing loss that ends the walk. Run
// with e.g.
//
//	go test -fuzz=FuzzDecodeTrain -fuzztime=30s ./internal/wire
func FuzzDecodeTrain(f *testing.F) {
	// A valid 3-member train.
	member := func(i int) Frame {
		return Frame{
			Kind:    KindRequest,
			ReqID:   uint64(i),
			Src:     Addr{Node: 1, Context: 2},
			Dst:     Addr{Node: 3, Context: 4},
			Object:  ObjectID(i),
			Payload: []byte("member payload"),
		}
	}
	var good []byte
	for i := 0; i < 3; i++ {
		m := member(i)
		var err error
		if good, err = AppendTrainMember(good, &m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(good)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x20 // damage somewhere in the middle member
	f.Add(flipped)
	prefix := append([]byte(nil), good...)
	prefix[0] = 0xff // first length prefix becomes a continuation byte
	f.Add(prefix)
	f.Add(good[:len(good)-5]) // truncated final member
	nested := Frame{Kind: KindTrain, Dst: Addr{Node: 3}, Payload: good}
	forged := AppendUvarint(nil, uint64(nested.EncodedLen()))
	var err error
	if forged, err = nested.Encode(forged); err != nil {
		f.Fatal(err)
	}
	f.Add(forged)
	f.Add([]byte{})
	f.Add([]byte{0x00}) // zero-length member

	f.Fuzz(func(t *testing.T, data []byte) {
		var delivered int
		members, rejected, err := ForEachTrainMember(data, func(m *Frame) {
			delivered++
			if m.Kind == KindTrain {
				t.Fatal("nested train delivered")
			}
			// A delivered member must be a complete valid frame: it
			// re-encodes without error to its own exact length.
			out, eerr := m.Encode(make([]byte, 0, m.EncodedLen()))
			if eerr != nil {
				t.Fatalf("delivered member does not re-encode: %v", eerr)
			}
			if len(out) != m.EncodedLen() || len(out) > len(data) {
				t.Fatalf("delivered member has bogus size %d (train is %d)", len(out), len(data))
			}
		})
		if members != delivered {
			t.Fatalf("reported %d members, delivered %d", members, delivered)
		}
		if err != nil && err != ErrTrainCorrupt {
			t.Fatalf("unexpected walk error: %v", err)
		}
		if err == ErrTrainCorrupt && rejected == 0 {
			t.Fatal("framing loss reported without a rejected count")
		}
	})
}

// TestDecodeFrameBitFlips is the exhaustive deterministic form of the
// fuzz property: EVERY single-bit flip of a valid encoding must be
// rejected. This is the guarantee netsim's corruption injection and the
// TestChaosGrayCorruptionHealed end-to-end test lean on — a corrupted
// frame is dropped at the wire layer and healed by retransmission, never
// delivered.
func TestDecodeFrameBitFlips(t *testing.T) {
	good := frameSeed(t)
	if _, _, err := Decode(good); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[i] ^= 1 << bit
			if _, _, err := Decode(mut); err == nil {
				t.Errorf("flip byte %d bit %d: corrupted frame accepted", i, bit)
			}
		}
	}
}
