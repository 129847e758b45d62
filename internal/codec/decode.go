package codec

import (
	"fmt"
	"math"
	"time"

	"repro/internal/wire"
)

// Decoder decodes tagged values. The zero value decodes with no hooks.
// Decoders are stateless and safe for concurrent use.
type Decoder struct {
	// RefHook, when non-nil, is called for every decoded Ref; its return
	// value replaces the Ref in the decoded result. The runtime uses this
	// to substitute a live proxy for each imported reference.
	RefHook func(Ref) (any, error)
}

// Decode parses one value from src, returning the value and bytes consumed.
// Decoded dynamic types: nil, bool, int64, uint64, float64, string, []byte
// (copied), []any, map[string]any, *Struct, Ref (or the RefHook's result),
// time.Time.
func (d *Decoder) Decode(src []byte) (any, int, error) {
	return d.decodeValue(src, 0)
}

func (d *Decoder) decodeValue(src []byte, depth int) (any, int, error) {
	if depth > MaxDepth {
		return nil, 0, ErrTooDeep
	}
	if len(src) == 0 {
		return nil, 0, wire.ErrShortBuffer
	}
	tag, rest := Tag(src[0]), src[1:]
	switch tag {
	case TagNil:
		return nil, 1, nil
	case TagFalse:
		return false, 1, nil
	case TagTrue:
		return true, 1, nil
	case TagInt:
		v, n, err := wire.Varint(rest)
		return v, 1 + n, err
	case TagUint:
		v, n, err := wire.Uvarint(rest)
		return v, 1 + n, err
	case TagFloat:
		if len(rest) < 8 {
			return nil, 0, wire.ErrShortBuffer
		}
		bits := uint64(rest[0])<<56 | uint64(rest[1])<<48 | uint64(rest[2])<<40 | uint64(rest[3])<<32 |
			uint64(rest[4])<<24 | uint64(rest[5])<<16 | uint64(rest[6])<<8 | uint64(rest[7])
		return math.Float64frombits(bits), 9, nil
	case TagString:
		s, n, err := wire.String(rest)
		return s, 1 + n, err
	case TagBytes:
		b, n, err := wire.Bytes(rest)
		if err != nil {
			return nil, 0, err
		}
		return append([]byte(nil), b...), 1 + n, nil
	case TagList:
		l, n, err := d.decodeList(rest, depth)
		if err != nil {
			return nil, 0, err
		}
		return l, 1 + n, nil
	case TagMap:
		return d.decodeMap(rest, depth)
	case TagStruct:
		return d.decodeStruct(rest, depth)
	case TagRef:
		r, n, err := DecodeRef(src)
		if err != nil {
			return nil, 0, err
		}
		if d.RefHook != nil {
			v, err := d.RefHook(r)
			if err != nil {
				return nil, 0, fmt.Errorf("codec: ref hook for %s: %w", r, err)
			}
			return v, n, nil
		}
		return r, n, nil
	case TagTime:
		ns, n, err := wire.Varint(rest)
		if err != nil {
			return nil, 0, err
		}
		return time.Unix(0, ns).UTC(), 1 + n, nil
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrBadTag, tag)
	}
}

// decodeList parses the body of a TagList at depth (src follows the tag)
// and reports the body bytes consumed.
func (d *Decoder) decodeList(src []byte, depth int) ([]any, int, error) {
	count, used, err := wire.Uvarint(src)
	if err != nil {
		return nil, 0, err
	}
	if count > uint64(len(src)) {
		return nil, 0, ErrElementCount
	}
	out := make([]any, 0, count)
	for i := uint64(0); i < count; i++ {
		v, n, err := d.decodeValue(src[used:], depth+1)
		if err != nil {
			return nil, 0, fmt.Errorf("codec: list elem %d: %w", i, err)
		}
		used += n
		out = append(out, v)
	}
	return out, used, nil
}

func (d *Decoder) decodeMap(src []byte, depth int) (any, int, error) {
	count, used, err := wire.Uvarint(src)
	if err != nil {
		return nil, 0, err
	}
	if count > uint64(len(src)) {
		return nil, 0, ErrElementCount
	}
	out := make(map[string]any, count)
	for i := uint64(0); i < count; i++ {
		k, n, err := wire.String(src[used:])
		if err != nil {
			return nil, 0, fmt.Errorf("codec: map key %d: %w", i, err)
		}
		used += n
		v, n, err := d.decodeValue(src[used:], depth+1)
		if err != nil {
			return nil, 0, fmt.Errorf("codec: map value %q: %w", k, err)
		}
		used += n
		out[k] = v
	}
	return out, 1 + used, nil
}

func (d *Decoder) decodeStruct(src []byte, depth int) (any, int, error) {
	name, used, err := wire.String(src)
	if err != nil {
		return nil, 0, err
	}
	count, n, err := wire.Uvarint(src[used:])
	if err != nil {
		return nil, 0, err
	}
	used += n
	if count > uint64(len(src)) {
		return nil, 0, ErrElementCount
	}
	s := &Struct{Name: name, Fields: make([]Field, 0, count)}
	for i := uint64(0); i < count; i++ {
		fname, n, err := wire.String(src[used:])
		if err != nil {
			return nil, 0, fmt.Errorf("codec: struct %s field %d name: %w", name, i, err)
		}
		used += n
		v, n, err := d.decodeValue(src[used:], depth+1)
		if err != nil {
			return nil, 0, fmt.Errorf("codec: struct %s field %q: %w", name, fname, err)
		}
		used += n
		s.Fields = append(s.Fields, Field{Name: fname, Value: v})
	}
	return s, 1 + used, nil
}

// DecodeRef parses a TagRef value from src (tag byte included).
func DecodeRef(src []byte) (Ref, int, error) {
	if len(src) == 0 {
		return Ref{}, 0, wire.ErrShortBuffer
	}
	if Tag(src[0]) != TagRef {
		return Ref{}, 0, fmt.Errorf("%w: want ref, got %d", ErrBadTag, src[0])
	}
	used := 1
	target, n, err := wire.DecodeObjAddr(src[used:])
	if err != nil {
		return Ref{}, 0, err
	}
	used += n
	cap64, n, err := wire.Uvarint(src[used:])
	if err != nil {
		return Ref{}, 0, err
	}
	used += n
	typ, n, err := wire.String(src[used:])
	if err != nil {
		return Ref{}, 0, err
	}
	used += n
	hint, n, err := wire.Bytes(src[used:])
	if err != nil {
		return Ref{}, 0, err
	}
	used += n
	r := Ref{Target: target, Type: typ, Cap: cap64}
	if len(hint) > 0 {
		r.Hint = append([]byte(nil), hint...)
	}
	return r, used, nil
}

// Decode parses one value with no hooks installed.
func Decode(src []byte) (any, int, error) {
	var d Decoder
	return d.Decode(src)
}

// DecodeArgs decodes an argument vector produced by EncodeArgs, applying
// the decoder's hooks to every element. A list is decoded straight into
// the returned slice, never boxed; anything else goes through Decode.
func (d *Decoder) DecodeArgs(src []byte) ([]any, error) {
	var args []any
	var n int
	var err error
	if len(src) > 0 && Tag(src[0]) == TagList {
		args, n, err = d.decodeList(src[1:], 0)
		n++ // the tag
	} else {
		var v any
		var ok bool
		if v, n, err = d.Decode(src); err == nil {
			// A RefHook may answer a lone Ref with a list.
			if args, ok = v.([]any); !ok && n == len(src) {
				err = fmt.Errorf("codec: argument vector is %T, want list", v)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if n != len(src) {
		return nil, fmt.Errorf("codec: %d trailing bytes after argument vector", len(src)-n)
	}
	return args, nil
}

// DecodeArgs decodes an argument vector with no hooks installed.
func DecodeArgs(src []byte) ([]any, error) {
	var d Decoder
	return d.DecodeArgs(src)
}

// Refs walks an already-decoded value and collects every Ref it contains,
// in encounter order. Useful for auditing which capabilities a message
// carries.
func Refs(v any) []Ref {
	var out []Ref
	walkRefs(v, &out)
	return out
}

func walkRefs(v any, out *[]Ref) {
	switch x := v.(type) {
	case Ref:
		*out = append(*out, x)
	case []any:
		for _, e := range x {
			walkRefs(e, out)
		}
	case map[string]any:
		for _, e := range x {
			walkRefs(e, out)
		}
	case *Struct:
		for _, f := range x.Fields {
			walkRefs(f.Value, out)
		}
	case Struct:
		for _, f := range x.Fields {
			walkRefs(f.Value, out)
		}
	}
}
