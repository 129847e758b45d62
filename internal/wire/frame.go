package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Kind discriminates the purpose of a frame. Kinds below KindCustom belong
// to the system layers; KindCustom and above are reserved for the private
// proxy↔server protocols of individual services, which the system carries
// but never interprets.
type Kind uint8

// System frame kinds.
const (
	// KindInvalid is the zero Kind and never appears on the wire.
	KindInvalid Kind = iota
	// KindRequest carries an invocation request to an object.
	KindRequest
	// KindReply carries a successful invocation result.
	KindReply
	// KindError carries a failed invocation's error.
	KindError
	// KindAck acknowledges receipt without carrying data.
	KindAck
	// KindPing probes liveness.
	KindPing
	// KindInstall asks a context to install a proxy for an exported ref.
	KindInstall
	// KindMove carries migration traffic (state capture and transfer).
	KindMove
	// KindForward tells a sender the object it addressed has moved.
	KindForward
	// KindInvalidate carries cache-coherence invalidations.
	KindInvalidate
	// KindLease carries cache lease grants and renewals.
	KindLease
	// KindName carries name-service operations.
	KindName
	// KindGroup carries membership/broadcast traffic.
	KindGroup
	// KindPage carries DSM page traffic.
	KindPage
	// KindTrain is a container frame: its payload is a sequence of
	// length-prefixed member frames bound for the same destination node,
	// coalesced by the sender's transport so one header/CRC/send covers
	// the whole train (see train.go). The receiving kernel unpacks it
	// below the object layer; it is only ever sent to nodes that have
	// advertised FlagTrains.
	KindTrain

	// KindCustom is the first kind available to service-private protocols.
	// A service may use KindCustom+i for its own message types; the system
	// routes these by destination only and never inspects the payload.
	KindCustom Kind = 64
)

var kindNames = map[Kind]string{
	KindInvalid:    "invalid",
	KindRequest:    "request",
	KindReply:      "reply",
	KindError:      "error",
	KindAck:        "ack",
	KindPing:       "ping",
	KindInstall:    "install",
	KindMove:       "move",
	KindForward:    "forward",
	KindInvalidate: "invalidate",
	KindLease:      "lease",
	KindName:       "name",
	KindGroup:      "group",
	KindPage:       "page",
	KindTrain:      "train",
}

// String names the kind; custom kinds render as "custom+N".
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	if k >= KindCustom {
		return fmt.Sprintf("custom+%d", uint8(k-KindCustom))
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Flag bits carried in the frame header.
const (
	// FlagOneWay marks a request that expects no reply.
	FlagOneWay uint16 = 1 << iota
	// FlagRetransmit marks a re-send of a request already sent under the
	// same id. rpc.Client sets it on every re-send and the transports
	// never duplicate a frame, so servers rely on its absence: an
	// unflagged request has not been presented before and cannot have run.
	FlagRetransmit
	// FlagUrgent asks transports to bypass queuing where possible.
	FlagUrgent
	// FlagResponse marks a frame that answers an earlier request: its
	// ReqID correlates with a pending call in the destination context
	// rather than naming a fresh request. Any Kind may carry it, which is
	// what lets service-private protocols reuse the kernel's call
	// machinery without the kernel understanding their messages.
	FlagResponse
	// FlagNoRoute marks a KindError response emitted by the receiving
	// kernel itself because the addressed context or object does not
	// exist: the request provably never reached a service. Failover logic
	// keys on this flag — not on the error text — to decide that
	// redirecting the call cannot double-execute anything. Only kernels
	// set it; application error responses must not.
	FlagNoRoute
	// FlagPushback marks a KindError response emitted by the receiving
	// kernel's admission controller: the node is overloaded and shed the
	// request before it reached a service, so the invocation provably
	// never executed. The payload carries a retry-after hint (see
	// AppendPushback). Like FlagNoRoute, only kernels set it.
	FlagPushback
	// FlagTrains advertises that the sending node's transport coalesces
	// and unpacks frame trains (KindTrain). A train-capable transport
	// sets it on every outbound frame — pings and their acks included —
	// and caches it per source node on receipt; trains are only ever
	// sent to destinations that have advertised it, so legacy peers keep
	// today's frame-at-a-time exchange.
	FlagTrains
	// FlagEnvelope marks an encoded frame whose payload bytes open with
	// its Envelope. Only Encode sets it and Decode clears it again: a
	// Frame in memory never carries it.
	FlagEnvelope
)

// Frame is the unit of transmission. Payload is opaque to every layer
// except the final consumer addressed by (Dst, Object): what a layer in
// between acts on is a header field or the Envelope, and Decode reads
// payload bytes only where FlagEnvelope says the sender put one there.
type Frame struct {
	Kind     Kind
	Flags    uint16
	ReqID    uint64 // request/reply correlation; unique per source context
	Src      Addr
	Dst      Addr
	Object   ObjectID // destination object within Dst; KernelObject for kernel traffic
	Envelope Envelope // control part of a request; zero on responses
	Payload  []byte

	// pooled is set on the frame a replyFrame holds, pointing back at
	// it (pool.go). A copy of the frame carries the pointer but not the
	// address it belongs to, so Release tells the two apart.
	pooled *replyFrame
}

// Frame wire layout (fixed header, big-endian):
//
//	magic(2) version(1) kind(1) flags(2) reqID(8)
//	srcNode(4) srcCtx(4) dstNode(4) dstCtx(4) object(8)
//	payloadLen(4) [envelope(…)] payload(…) crc32(4)
//
// payloadLen counts the envelope, which is present under FlagEnvelope.
// The CRC covers header and payload — except for KindTrain, where it
// covers the header only: a train's payload is a sequence of fully-encoded
// member frames that each carry their own CRC, so double-checksumming would
// cost a second pass over the bytes and, worse, make one corrupt member
// reject the entire train instead of just that member.
const (
	frameMagic   uint16 = 0x5059 // "PY"
	frameVersion byte   = 1
	headerLen           = 2 + 1 + 1 + 2 + 8 + 4 + 4 + 4 + 4 + 8 + 4
	trailerLen          = 4
)

// MaxPayload bounds a single frame's payload (envelope included); larger
// application payloads must be chunked by the layer that produces them.
const MaxPayload = 16 << 20

// Frame decode errors.
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported frame version")
	ErrBadCRC     = errors.New("wire: frame checksum mismatch")
	ErrTooLarge   = fmt.Errorf("wire: payload exceeds %d bytes", MaxPayload)
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodedLen reports the total encoded size of the frame.
func (f *Frame) EncodedLen() int {
	return headerLen + f.Envelope.encodedLen(f.Payload) + len(f.Payload) + trailerLen
}

// Encode appends the encoded frame to dst and returns the extended slice.
func (f *Frame) Encode(dst []byte) ([]byte, error) {
	flags, enveloped := f.Flags&^FlagEnvelope, !f.Envelope.isZero()
	if enveloped {
		flags |= FlagEnvelope
	}
	start := len(dst)
	var hdr [headerLen]byte
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = byte(f.Kind)
	binary.BigEndian.PutUint16(hdr[4:], flags)
	binary.BigEndian.PutUint64(hdr[6:], f.ReqID)
	binary.BigEndian.PutUint32(hdr[14:], uint32(f.Src.Node))
	binary.BigEndian.PutUint32(hdr[18:], uint32(f.Src.Context))
	binary.BigEndian.PutUint32(hdr[22:], uint32(f.Dst.Node))
	binary.BigEndian.PutUint32(hdr[26:], uint32(f.Dst.Context))
	binary.BigEndian.PutUint64(hdr[30:], uint64(f.Object))
	dst = append(dst, hdr[:]...)
	if enveloped {
		dst = f.Envelope.appendFramed(dst, f.Payload)
	} else {
		dst = append(dst, f.Payload...)
	}
	plen := len(dst) - start - headerLen
	if plen > MaxPayload {
		return dst[:start], ErrTooLarge
	}
	binary.BigEndian.PutUint32(dst[start+38:], uint32(plen))
	crcEnd := len(dst)
	if f.Kind == KindTrain {
		crcEnd = start + headerLen
	}
	crc := crc32.Checksum(dst[start:crcEnd], crcTable)
	var tr [trailerLen]byte
	binary.BigEndian.PutUint32(tr[:], crc)
	return append(dst, tr[:]...), nil
}

// Decode parses one frame from src, returning the frame and bytes consumed.
// The returned frame's Payload aliases src. It is the one place envelope
// bytes become fields: a flagged frame whose payload does not open with
// exactly what Encode writes for the envelope it parses to is rejected
// like a bad checksum.
func Decode(src []byte) (Frame, int, error) {
	if len(src) < headerLen+trailerLen {
		return Frame{}, 0, ErrShortBuffer
	}
	if binary.BigEndian.Uint16(src[0:]) != frameMagic {
		return Frame{}, 0, ErrBadMagic
	}
	if src[2] != frameVersion {
		return Frame{}, 0, ErrBadVersion
	}
	plen := int(binary.BigEndian.Uint32(src[38:]))
	if plen > MaxPayload {
		return Frame{}, 0, ErrTooLarge
	}
	total := headerLen + plen + trailerLen
	if len(src) < total {
		return Frame{}, 0, ErrShortBuffer
	}
	want := binary.BigEndian.Uint32(src[headerLen+plen:])
	crcEnd := headerLen + plen
	if Kind(src[3]) == KindTrain {
		crcEnd = headerLen
	}
	if crc32.Checksum(src[:crcEnd], crcTable) != want {
		return Frame{}, 0, ErrBadCRC
	}
	f := Frame{
		Kind:  Kind(src[3]),
		Flags: binary.BigEndian.Uint16(src[4:]),
		ReqID: binary.BigEndian.Uint64(src[6:]),
		Src: Addr{
			Node:    NodeID(binary.BigEndian.Uint32(src[14:])),
			Context: ContextID(binary.BigEndian.Uint32(src[18:])),
		},
		Dst: Addr{
			Node:    NodeID(binary.BigEndian.Uint32(src[22:])),
			Context: ContextID(binary.BigEndian.Uint32(src[26:])),
		},
		Object:  ObjectID(binary.BigEndian.Uint64(src[30:])),
		Payload: src[headerLen : headerLen+plen],
	}
	if f.Flags&FlagEnvelope != 0 {
		e, body, err := ParseEnvelope(f.Payload)
		if err != nil || e.isZero() || len(f.Payload)-len(body) != e.encodedLen(body) {
			return Frame{}, 0, ErrBadEnvelope
		}
		f.Flags &^= FlagEnvelope
		f.Envelope, f.Payload = e, body
	}
	return f, total, nil
}

// ReadFrame reads exactly one frame from br into one exact-size
// allocation that the frame owns (Payload aliases it and nothing else
// does), so the result never aliases br's buffer and may be retained
// while the reader is reused. The header is peeked in place, not copied
// out first. A stream that ends between frames returns io.EOF; one that
// ends inside a frame returns io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	n, _, err := peekFrame(br)
	if err != nil {
		return Frame{}, err
	}
	return readFull(br, make([]byte, n))
}

// ReadInbound reads one frame from br as ReadFrame does, with the same
// checks and errors, except that a response (FlagResponse, any kind but
// KindTrain) lands in a frame from the reply pool, read into that frame's
// own recycled buffer. Such a frame has one owner, the call waiting for
// it, which may Release it once nothing it decoded aliases the payload;
// one never released is ordinary garbage. Requests and trains are read
// into a new frame and exact-size buffer, as ReadFrame reads them.
func ReadInbound(br *bufio.Reader) (*Frame, error) {
	n, reply, err := peekFrame(br)
	if err != nil {
		return nil, err
	}
	if !reply {
		f, err := readFull(br, make([]byte, n))
		if err != nil {
			return nil, err
		}
		return &f, nil
	}
	r := getReply()
	if err := r.read(br, n); err != nil {
		r.recycle()
		return nil, err
	}
	return &r.Frame, nil
}

// peekFrame looks at the next frame's header in br's buffer and reports
// its encoded length and whether it is a response a pooled frame holds.
func peekFrame(br *bufio.Reader) (n int, reply bool, err error) {
	hdr, err := br.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, false, err
	}
	plen := int(binary.BigEndian.Uint32(hdr[38:]))
	if plen > MaxPayload {
		return 0, false, ErrTooLarge
	}
	reply = binary.BigEndian.Uint16(hdr[4:])&FlagResponse != 0 && Kind(hdr[3]) != KindTrain
	return headerLen + plen + trailerLen, reply, nil
}

// readFull fills full from br and decodes it; the frame's Payload aliases full.
func readFull(br *bufio.Reader, full []byte) (Frame, error) {
	if _, err := io.ReadFull(br, full); err != nil {
		return Frame{}, err
	}
	f, _, err := Decode(full)
	return f, err
}

// Clone returns a deep copy of the frame (payload included), safe to retain
// after the source buffer is reused.
func (f *Frame) Clone() Frame {
	c := *f
	c.pooled = nil
	if f.Payload != nil {
		c.Payload = append([]byte(nil), f.Payload...)
	}
	return c
}

// String renders a concise human-readable summary for logs.
func (f *Frame) String() string {
	return fmt.Sprintf("%s#%d %s→%s/%d (%dB)", f.Kind, f.ReqID, f.Src, f.Dst, f.Object, len(f.Payload))
}
