// Package codec implements the system's marshalling format: a compact,
// self-describing tagged encoding for Go values, used for invocation
// arguments, results, object state capture (migration), and name-service
// records.
//
// The format's most important feature for the proxy principle is
// *reference marshalling*: a Ref — the capability tuple naming a remote
// object — is a first-class encodable value. When an invocation argument or
// result carries a Ref across a context boundary, the importing side's
// decoder surfaces it via a hook so the runtime can install a proxy for the
// referenced object. The Ref carries an opaque Hint blob chosen by the
// *exporting service*; only that service's proxy factory interprets it
// (private bootstrap data, e.g. a cache lease or replica list).
package codec

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/wire"
)

// Tag identifies the type of an encoded value.
type Tag uint8

// Value tags.
const (
	// TagNil encodes the nil value.
	TagNil Tag = iota + 1
	// TagFalse and TagTrue encode booleans without a payload byte.
	TagFalse
	// TagTrue encodes boolean true.
	TagTrue
	// TagInt encodes a signed integer (zigzag varint).
	TagInt
	// TagUint encodes an unsigned integer (varint).
	TagUint
	// TagFloat encodes a float64 (8 bytes, IEEE 754 big-endian bits).
	TagFloat
	// TagString encodes a UTF-8 string.
	TagString
	// TagBytes encodes a raw byte string.
	TagBytes
	// TagList encodes a count-prefixed sequence of values.
	TagList
	// TagMap encodes a count-prefixed sequence of key/value pairs.
	TagMap
	// TagStruct encodes a named struct: type name, field count, then
	// name/value pairs for each field.
	TagStruct
	// TagRef encodes an object reference (capability tuple).
	TagRef
	// TagTime encodes a time.Time as Unix nanoseconds.
	TagTime
)

// Errors reported by the codec.
var (
	// ErrUnsupported reports a Go value the codec cannot encode.
	ErrUnsupported = errors.New("codec: unsupported value type")
	// ErrBadTag reports an unknown tag in the input.
	ErrBadTag = errors.New("codec: unknown tag")
	// ErrTooDeep reports input nested beyond MaxDepth.
	ErrTooDeep = errors.New("codec: nesting too deep")
	// ErrElementCount reports an element count that exceeds the input size
	// (hostile or corrupt input).
	ErrElementCount = errors.New("codec: element count exceeds input")
)

// MaxDepth bounds value nesting, protecting the decoder against hostile
// deeply-nested input.
const MaxDepth = 64

// Ref is the wire representation of an object reference: the capability a
// context must hold to talk to an object elsewhere. Type selects the proxy
// factory on import; Hint is private data produced by the exporting
// service's proxy factory and consumed only by the importing proxy; Cap is
// the unforgeable token minted by a protected export — the server rejects
// invocations that do not present it, which is what makes a Ref a true
// capability rather than just an address (zero means the export is
// unprotected).
type Ref struct {
	Target wire.ObjAddr
	Type   string
	Hint   []byte
	Cap    uint64
}

// IsZero reports whether the ref is unset.
func (r Ref) IsZero() bool {
	return r.Target.IsZero() && r.Type == "" && len(r.Hint) == 0 && r.Cap == 0
}

// String renders the ref for logs, without exposing the private hint or
// the capability token.
func (r Ref) String() string {
	return fmt.Sprintf("ref<%s@%s>", r.Type, r.Target)
}

// Struct is the generic decoded form of a TagStruct value. Encoding a
// Struct writes its fields in the order given (canonical order is the
// producer's responsibility; the reflect layer sorts by declaration order).
type Struct struct {
	Name   string
	Fields []Field
}

// Field is one named field of a Struct.
type Field struct {
	Name  string
	Value any
}

// Get returns the named field's value and whether it was present.
func (s *Struct) Get(name string) (any, bool) {
	for _, f := range s.Fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return nil, false
}

// Append encodes v onto dst and returns the extended slice. Supported
// dynamic types: nil, bool, int/int8..64, uint/uint8..64, float32/64,
// string, []byte, []any, map[string]any, Struct/*Struct, Ref, time.Time.
// Anything else (including arbitrary structs) must go through the reflect
// layer (Marshal) which lowers values into these shapes.
func Append(dst []byte, v any) ([]byte, error) {
	return appendValue(dst, v, 0)
}

func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	if depth > MaxDepth {
		return dst, ErrTooDeep
	}
	switch x := v.(type) {
	case nil:
		return append(dst, byte(TagNil)), nil
	case bool:
		if x {
			return append(dst, byte(TagTrue)), nil
		}
		return append(dst, byte(TagFalse)), nil
	case int:
		return appendInt(dst, int64(x)), nil
	case int8:
		return appendInt(dst, int64(x)), nil
	case int16:
		return appendInt(dst, int64(x)), nil
	case int32:
		return appendInt(dst, int64(x)), nil
	case int64:
		return appendInt(dst, x), nil
	case uint:
		return appendUint(dst, uint64(x)), nil
	case uint8:
		return appendUint(dst, uint64(x)), nil
	case uint16:
		return appendUint(dst, uint64(x)), nil
	case uint32:
		return appendUint(dst, uint64(x)), nil
	case uint64:
		return appendUint(dst, x), nil
	case float32:
		return appendFloat(dst, float64(x)), nil
	case float64:
		return appendFloat(dst, x), nil
	case string:
		dst = append(dst, byte(TagString))
		return wire.AppendString(dst, x), nil
	case []byte:
		dst = append(dst, byte(TagBytes))
		return wire.AppendBytes(dst, x), nil
	case []any:
		return appendList(dst, x, depth)
	case map[string]any:
		return appendStringMap(dst, x, depth)
	case Struct:
		return appendStruct(dst, &x, depth)
	case *Struct:
		return appendStruct(dst, x, depth)
	case Ref:
		return AppendRef(dst, x), nil
	case time.Time:
		dst = append(dst, byte(TagTime))
		return wire.AppendVarint(dst, x.UnixNano()), nil
	default:
		return dst, fmt.Errorf("%w: %T", ErrUnsupported, v)
	}
}

func appendInt(dst []byte, v int64) []byte {
	dst = append(dst, byte(TagInt))
	return wire.AppendVarint(dst, v)
}

func appendUint(dst []byte, v uint64) []byte {
	dst = append(dst, byte(TagUint))
	return wire.AppendUvarint(dst, v)
}

func appendFloat(dst []byte, v float64) []byte {
	dst = append(dst, byte(TagFloat))
	bits := math.Float64bits(v)
	return append(dst,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

func appendList(dst []byte, l []any, depth int) ([]byte, error) {
	dst = AppendListHeader(dst, len(l))
	var err error
	for _, e := range l {
		if dst, err = appendValue(dst, e, depth+1); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendStringMap(dst []byte, m map[string]any, depth int) ([]byte, error) {
	dst = append(dst, byte(TagMap))
	dst = wire.AppendUvarint(dst, uint64(len(m)))
	// Canonical order: sorted keys, so equal maps encode equally.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	var err error
	for _, k := range keys {
		dst = wire.AppendString(dst, k)
		if dst, err = appendValue(dst, m[k], depth+1); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendStruct(dst []byte, s *Struct, depth int) ([]byte, error) {
	dst = append(dst, byte(TagStruct))
	dst = wire.AppendString(dst, s.Name)
	dst = wire.AppendUvarint(dst, uint64(len(s.Fields)))
	var err error
	for _, f := range s.Fields {
		dst = wire.AppendString(dst, f.Name)
		if dst, err = appendValue(dst, f.Value, depth+1); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendRef encodes a Ref value.
func AppendRef(dst []byte, r Ref) []byte {
	dst = append(dst, byte(TagRef))
	dst = wire.AppendObjAddr(dst, r.Target)
	dst = wire.AppendUvarint(dst, r.Cap)
	dst = wire.AppendString(dst, r.Type)
	return wire.AppendBytes(dst, r.Hint)
}

// insertion sort; key sets are tiny and this avoids importing sort for one
// call site on the hot encode path.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// EncodeArgs encodes an argument vector (a TagList of the given values).
func EncodeArgs(args ...any) ([]byte, error) {
	return appendList(nil, args, 0)
}

// AppendListHeader opens a TagList of exactly n elements; the caller
// must append n values with AppendElem. It lets hot paths build an
// argument list in place instead of materializing an []any first.
func AppendListHeader(dst []byte, n int) []byte {
	dst = append(dst, byte(TagList))
	return wire.AppendUvarint(dst, uint64(n))
}

// AppendElem appends one element of a list opened with AppendListHeader,
// depth-accounted exactly as Append nests list elements.
func AppendElem(dst []byte, v any) ([]byte, error) {
	return appendValue(dst, v, 1)
}
