package core

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/codec"
)

// TestAppendRequestGolden holds AppendRequest, which writes the cap and
// method typed, to the bytes the codec gives the same vector.
func TestAppendRequestGolden(t *testing.T) {
	args := [][]any{nil, {"k"}, {"k", int64(1 << 40), []byte{1, 2}, nil}}
	for _, cap := range []uint64{0, 1, math.MaxUint64} {
		for _, method := range []string{"", "get", "größe·取得"} {
			for _, a := range args {
				want, err := codec.EncodeArgs(append([]any{cap, method}, a...)...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := AppendRequest([]byte("prefix"), cap, method, a)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, append([]byte("prefix"), want...)) {
					t.Errorf("AppendRequest(%d, %q, %v) = %x, want %x after the prefix", cap, method, a, got, want)
				}
			}
		}
	}
	// And one vector spelled out: [uint 1, "get", "k"].
	got, _ := EncodeRequest(1, "get", []any{"k"})
	if want := "09030501070367657407016b"; hex.EncodeToString(got) != want {
		t.Errorf("EncodeRequest(1, get, k) = %x, want %s", got, want)
	}
}
