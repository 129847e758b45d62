// Package cache implements the caching smart proxy — the paper's canonical
// example of a proxy that is more than stub code. A service exported
// through cache.Factory ships references whose Hint carries a *private*
// bootstrap blob; the caching proxies installed from those references talk
// to a server-side coordinator over a protocol of custom frame kinds that
// no other layer interprets. Reads are served from a local result cache;
// writes go through the coordinator, which keeps every cached copy
// coherent.
//
// Two coherence modes are provided (the service picks one — the client
// cannot tell the difference, which is the encapsulation point):
//
//   - ModeCallback: the coordinator tracks every caching proxy and pushes
//     invalidations on writes. Writes block until all copies acknowledge
//     (single-writer coherence; the cost of this is experiment E10).
//   - ModeLease: cached entries self-expire after a TTL; no callbacks, no
//     sharer tracking, but reads may be stale up to the lease length.
package cache

import (
	"time"

	"repro/internal/codec"
	"repro/internal/wire"
)

// Mode selects the coherence protocol.
type Mode uint8

// Coherence modes.
const (
	// ModeCallback invalidates cached copies on every write.
	ModeCallback Mode = 1
	// ModeLease lets cached entries live for a fixed TTL.
	ModeLease Mode = 2
)

// Private protocol frame kinds (carried opaquely by every lower layer).
const (
	kindRegister   = wire.KindCustom + 10 // proxy → coordinator: join the sharer set
	kindDeregister = wire.KindCustom + 11 // proxy → coordinator: leave
	kindRead       = wire.KindCustom + 12 // proxy → coordinator: versioned read
	kindWrite      = wire.KindCustom + 13 // proxy → coordinator: write-through
)

// hint is the private bootstrap data embedded in exported references:
// where the coordinator's control object lives, the mode, the lease TTL,
// which methods are cacheable reads, and the brownout staleness window.
// Only this package produces or parses it. StaleWindow is appended after
// the read list so hints from pre-brownout exporters decode with a zero
// window (brownout off) and pre-brownout importers ignore the trailing
// bytes.
type hint struct {
	Ctrl        wire.ObjectID
	Mode        Mode
	LeaseTTL    time.Duration
	Reads       []string
	StaleWindow time.Duration
}

func (h *hint) encode() []byte {
	buf := wire.AppendUvarint(nil, uint64(h.Ctrl))
	buf = append(buf, byte(h.Mode))
	buf = wire.AppendUvarint(buf, uint64(h.LeaseTTL))
	buf = wire.AppendUvarint(buf, uint64(len(h.Reads)))
	for _, r := range h.Reads {
		buf = wire.AppendString(buf, r)
	}
	return wire.AppendUvarint(buf, uint64(h.StaleWindow))
}

func decodeHint(src []byte) (hint, error) {
	var h hint
	ctrl, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	if len(src) < 1 {
		return h, wire.ErrShortBuffer
	}
	h.Ctrl = wire.ObjectID(ctrl)
	h.Mode = Mode(src[0])
	src = src[1:]
	ttl, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	h.LeaseTTL = time.Duration(ttl)
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return h, codec.ErrElementCount
	}
	h.Reads = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		s, n, err := wire.String(src)
		if err != nil {
			return h, err
		}
		src = src[n:]
		h.Reads = append(h.Reads, s)
	}
	if len(src) > 0 {
		sw, _, err := wire.Uvarint(src)
		if err != nil {
			return h, err
		}
		h.StaleWindow = time.Duration(sw)
	}
	return h, nil
}

// versionedReply encodes a coordinator response: the object version plus
// the invocation results.
func encodeVersioned(version uint64, results []any) ([]byte, error) {
	return codec.Append(nil, []any{version, results})
}

func decodeVersioned(d *codec.Decoder, payload []byte) (uint64, []any, error) {
	vals, err := d.DecodeArgs(payload)
	if err != nil {
		return 0, nil, err
	}
	if len(vals) != 2 {
		return 0, nil, codec.ErrElementCount
	}
	version, ok := vals[0].(uint64)
	if !ok {
		return 0, nil, codec.ErrBadTag
	}
	results, ok := vals[1].([]any)
	if !ok {
		return 0, nil, codec.ErrBadTag
	}
	return version, results, nil
}
