package core

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/kernel"
	"repro/internal/wire"
)

// Invocation payload conventions. A request payload is the codec list
// [cap uint64, method string, arg0, arg1, …] and nothing else: what the
// call's ctx implies — admission class, exactly-once identity, remaining
// deadline budget, span — travels beside it in the request frame's
// envelope (wire.Envelope; deadline.go says which ctx value becomes which
// field). A reply payload is the codec list [result0, result1, …]; an
// error payload is the codec struct {Name:"InvokeError", Fields: Code,
// Method, Msg}. The leading cap is the capability token from the caller's
// reference (zero when the export is unprotected); servers of protected
// exports reject mismatches. These conventions are shared by every proxy
// kind in the repository, but nothing forces a service-private protocol
// to use them — smart proxies may exchange whatever payloads they like
// under custom kinds.

// EncodeRequest builds a request payload presenting the given capability
// token. Arguments must already be in wire shape (Runtime.encodeOutbound
// lowers proxies and services to Refs before calling this).
func EncodeRequest(cap uint64, method string, args []any) ([]byte, error) {
	return AppendRequest(nil, cap, method, args)
}

// AppendRequest is EncodeRequest appending onto dst (which may be a
// pooled buffer): the [cap, method, args...] list is encoded element by
// element, with no intermediate vector. Cap and method are written typed,
// in the bytes codec.Append gives a uint64 and a string, so neither is
// boxed.
func AppendRequest(dst []byte, cap uint64, method string, args []any) ([]byte, error) {
	dst = codec.AppendListHeader(dst, len(args)+2)
	dst = wire.AppendUvarint(append(dst, byte(codec.TagUint)), cap)
	dst = wire.AppendString(append(dst, byte(codec.TagString)), method)
	for _, a := range args {
		var err error
		if dst, err = codec.AppendElem(dst, a); err != nil {
			return nil, fmt.Errorf("core: encode request %q: %w", method, err)
		}
	}
	return dst, nil
}

// DecodeRequest parses a request payload with the given decoder (whose
// RefHook installs proxies for imported references).
func DecodeRequest(d *codec.Decoder, payload []byte) (cap uint64, method string, args []any, err error) {
	vec, err := d.DecodeArgs(payload)
	if err != nil {
		return 0, "", nil, fmt.Errorf("core: decode request: %w", err)
	}
	if len(vec) < 2 {
		return 0, "", nil, errors.New("core: short request vector")
	}
	c, ok := vec[0].(uint64)
	if !ok {
		return 0, "", nil, fmt.Errorf("core: request cap is %T, want uint64", vec[0])
	}
	m, ok := vec[1].(string)
	if !ok {
		return 0, "", nil, fmt.Errorf("core: request method is %T, want string", vec[1])
	}
	return c, m, vec[2:], nil
}

// EncodeResults builds a reply payload.
func EncodeResults(results []any) ([]byte, error) {
	buf, err := codec.EncodeArgs(results...)
	if err != nil {
		return nil, fmt.Errorf("core: encode results: %w", err)
	}
	return buf, nil
}

// DecodeResults parses a reply payload with the given decoder.
func DecodeResults(d *codec.Decoder, payload []byte) ([]any, error) {
	res, err := d.DecodeArgs(payload)
	if err != nil {
		return nil, fmt.Errorf("core: decode results: %w", err)
	}
	return res, nil
}

// EncodeInvokeError builds an error payload from any error. Non-InvokeError
// values are wrapped as CodeApp.
func EncodeInvokeError(method string, err error) []byte {
	ie := AsInvokeError(method, err)
	s := codec.Struct{Name: "InvokeError", Fields: []codec.Field{
		{Name: "Code", Value: int64(ie.Code)},
		{Name: "Method", Value: ie.Method},
		{Name: "Msg", Value: ie.Msg},
	}}
	buf, encErr := codec.Append(nil, s)
	if encErr != nil {
		// Unreachable for this fixed shape, but never drop the error.
		return []byte(ie.Error())
	}
	return buf
}

// AsInvokeError coerces err into an *InvokeError, wrapping foreign errors
// as application errors for the given method.
func AsInvokeError(method string, err error) *InvokeError {
	var ie *InvokeError
	if errors.As(err, &ie) {
		return ie
	}
	return &InvokeError{Code: CodeApp, Method: method, Msg: err.Error()}
}

// DecodeInvokeError parses an error payload back into an *InvokeError. A
// payload that is not a well-formed InvokeError struct (e.g. a kernel-level
// error string) is surfaced as CodeInternal with the raw text.
func DecodeInvokeError(payload []byte) *InvokeError {
	v, n, err := codec.Decode(payload)
	if err != nil || n != len(payload) {
		return &InvokeError{Code: CodeInternal, Msg: string(payload)}
	}
	s, ok := v.(*codec.Struct)
	if !ok || s.Name != "InvokeError" {
		return &InvokeError{Code: CodeInternal, Msg: string(payload)}
	}
	out := &InvokeError{Code: CodeInternal}
	if c, ok := s.Get("Code"); ok {
		if ci, ok := c.(int64); ok {
			out.Code = Code(ci)
		}
	}
	if m, ok := s.Get("Method"); ok {
		out.Method, _ = m.(string)
	}
	if m, ok := s.Get("Msg"); ok {
		out.Msg, _ = m.(string)
	}
	return out
}

// RemoteToInvokeError converts a transport-level error from a call into
// the error the proxy returns to its client: overload pushback becomes
// CodeOverload (the payload is a retry-after hint, not an InvokeError
// struct), other remote KindError payloads are decoded; everything else
// is wrapped as CodeUnavailable.
func RemoteToInvokeError(method string, err error) error {
	var re *kernel.RemoteError
	if errors.As(err, &re) {
		if re.Pushback {
			return &InvokeError{
				Code:   CodeOverload,
				Method: method,
				Msg:    fmt.Sprintf("%s shed the request; retry after %s", re.From, re.RetryAfter),
			}
		}
		ie := DecodeInvokeError(re.Payload)
		if ie.Method == "" {
			ie.Method = method
		}
		return ie
	}
	return &InvokeError{Code: CodeUnavailable, Method: method, Msg: err.Error()}
}

// IsOverload reports whether err is an overload shed — either the raw
// transport form (a pushback RemoteError) or the decoded proxy form (an
// InvokeError with CodeOverload). Degradation policies key on this:
// cache proxies serve stale within their staleness window, shard
// scatter-gather surfaces the key without re-routing (the owner is
// right, just saturated).
func IsOverload(err error) bool {
	var re *kernel.RemoteError
	if errors.As(err, &re) {
		return re.Pushback
	}
	var ie *InvokeError
	return errors.As(err, &ie) && ie.Code == CodeOverload
}

// ForwardPayload is the payload of a KindForward response: the new
// location of a migrated object, encoded as a bare Ref.
func ForwardPayload(newRef codec.Ref) []byte {
	return codec.AppendRef(nil, newRef)
}

// DecodeForward parses a KindForward payload.
func DecodeForward(payload []byte) (codec.Ref, error) {
	r, n, err := codec.DecodeRef(payload)
	if err != nil {
		return codec.Ref{}, fmt.Errorf("core: decode forward: %w", err)
	}
	if n != len(payload) {
		return codec.Ref{}, fmt.Errorf("core: %d trailing bytes in forward", len(payload)-n)
	}
	return r, nil
}
