package codec

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/wire"
)

// decodeArgsViaDecode is DecodeArgs written over Decode: what an argument
// vector means, and the errors it is refused with.
func decodeArgsViaDecode(src []byte) ([]any, error) {
	v, n, err := Decode(src)
	if err != nil {
		return nil, err
	}
	if n != len(src) {
		return nil, fmt.Errorf("codec: %d trailing bytes after argument vector", len(src)-n)
	}
	args, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("codec: argument vector is %T, want list", v)
	}
	return args, nil
}

// FuzzDecodeArgsParity holds DecodeArgs, which decodes a list without
// boxing it, to Decode: the same inputs accepted, the same errors, equal
// values (compared re-encoded, so a NaN equals itself).
func FuzzDecodeArgsParity(f *testing.F) {
	list := func(elems ...byte) []byte {
		return append(AppendListHeader(nil, int(elems[0])), elems[1:]...)
	}
	f.Add([]byte{})
	f.Add(list(0))
	f.Add(list(1, byte(TagInt), 0x80, 0x80, 0x80, 0x80, 0x80, 0x40)) // [1<<40]
	f.Add(list(3, byte(TagUint), 1, byte(TagString), 3, 'g', 'e', 't', byte(TagNil)))
	f.Add(list(2, byte(TagList), 1, byte(TagTrue), byte(TagMap), 1, 1, 'k', byte(TagFalse)))
	f.Add(list(1, byte(TagFloat), 0x7f, 0xf8, 0, 0, 0, 0, 0, 1)) // NaN
	f.Add(list(1, byte(TagInt), 2, 0xff))                        // trailing byte
	f.Add(list(5, byte(TagNil)))                                 // elements missing
	f.Add(list(1, 0xee))                                         // bad element tag
	f.Add(append([]byte{byte(TagList)}, wire.AppendUvarint(nil, 1<<40)...))
	f.Add([]byte{byte(TagList), 0x80})                   // truncated count
	f.Add([]byte{byte(TagInt), 2})                       // not a list
	f.Add([]byte{byte(TagMap), 0})                       // not a list
	f.Add([]byte{byte(TagString), 1, 'x', byte(TagNil)}) // not a list, trailing
	deep := []byte{byte(TagNil)}
	for i := 0; i <= MaxDepth; i++ {
		deep = append([]byte{byte(TagList), 1}, deep...)
	}
	f.Add(deep)
	f.Fuzz(func(t *testing.T, src []byte) {
		got, err := DecodeArgs(src)
		want, wantErr := decodeArgsViaDecode(src)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeArgs(%x) = %v, Decode says %v", src, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("DecodeArgs(%x) = %d values, Decode %d", src, len(got), len(want))
		}
		g, gErr := EncodeArgs(got...)
		w, wErr := EncodeArgs(want...)
		if gErr != nil || wErr != nil || !bytes.Equal(g, w) {
			t.Fatalf("DecodeArgs(%x) = %#v, Decode %#v", src, got, want)
		}
	})
}

func TestDecodeArgsRefHookList(t *testing.T) {
	// A lone Ref is not a list, but a RefHook may answer it with one.
	d := Decoder{RefHook: func(Ref) (any, error) { return []any{"proxy"}, nil }}
	args, err := d.DecodeArgs(AppendRef(nil, Ref{Type: "KV"}))
	if err != nil || len(args) != 1 || args[0] != "proxy" {
		t.Errorf("DecodeArgs(ref) = %v, %v; want the hook's list", args, err)
	}
}
