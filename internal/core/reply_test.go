package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// replyValue is the value call i of caller w returns: 16 bytes, or 16 KiB
// on every third call, its bytes a function of (w, i).
func replyValue(w, i int64) []byte {
	n := 16
	if i%3 == 0 {
		n = 16 << 10
	}
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(w*59 + i*7 + int64(j)*13)
	}
	return v
}

// tcpNode is a kernel node on a loopback TCP endpoint behind a coalescer
// that stages from the first send, so concurrent calls ride in trains.
func tcpNode(t *testing.T, node wire.NodeID, peers map[wire.NodeID]string) (*kernel.Context, *netsim.CoalescedEndpoint, string) {
	t.Helper()
	ep, err := netsim.ListenTCP(node, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	ce := netsim.Coalesce(ep, wire.CoalescerConfig{BurstGap: time.Hour, EnterBurst: 1})
	n := kernel.NewNode(ce)
	t.Cleanup(func() { n.Close() })
	ktx, err := n.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	return ktx, ce, ep.ListenAddr()
}

// TestPooledReplyOverTCP drives 8 callers through stubs on one TCP
// connection. Replies are read into pooled frames, which each stub
// releases once decoded, so every reply lands in a buffer an earlier
// reply used: small replies ride in trains (their frames alias the
// train's bytes), large ones come alone. Every result must be the bytes
// the server sent, when it arrives and still after 32 later calls.
func TestPooledReplyOverTCP(t *testing.T) {
	srvCtx, srvCE, addr := tcpNode(t, 1, nil)
	cliCtx, _, _ := tcpNode(t, 2, map[wire.NodeID]string{1: addr})
	ref, err := NewRuntime(srvCtx).Export(ServiceFunc(func(_ context.Context, method string, args []any) ([]any, error) {
		if method != "value" || len(args) != 2 {
			return nil, BadArgs(method, "want value(caller, call)")
		}
		w, _ := args[0].(int64)
		i, _ := args[1].(int64)
		return []any{replyValue(w, i)}, nil
	}), "Values")
	if err != nil {
		t.Fatal(err)
	}
	client := NewRuntime(cliCtx)
	const callers, calls, kept = 8, 1000, 32
	proxies := make([]Proxy, callers)
	for w := range proxies {
		if proxies[w], err = client.Import(ref); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// The first exchange teaches each side that the other speaks trains.
	if _, err := proxies[0].Invoke(ctx, "value", int64(0), int64(1)); err != nil {
		t.Fatal(err)
	}
	pool0 := wire.ReadPoolStats()

	var wg sync.WaitGroup
	for w, p := range proxies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ring [kept][]byte
			for i := 0; i < calls; i++ {
				res, err := p.Invoke(ctx, "value", int64(w), int64(i))
				if err != nil {
					t.Errorf("caller %d call %d: %v", w, i, err)
					return
				}
				got, _ := res[0].([]byte)
				if len(res) != 1 || !bytes.Equal(got, replyValue(int64(w), int64(i))) {
					t.Errorf("caller %d call %d: %d-byte result is not what the server sent", w, i, len(got))
					return
				}
				if old := i - kept; old >= 0 && !bytes.Equal(ring[i%kept], replyValue(int64(w), int64(old))) {
					t.Errorf("caller %d call %d: its result changed while %d later replies were read", w, old, kept)
					return
				}
				ring[i%kept] = got
			}
		}()
	}
	wg.Wait()

	if st := srvCE.Coalescer().Stats(); st.TrainsSent == 0 {
		t.Errorf("no reply trains formed under %d callers: %+v", callers, st)
	}
	pool := wire.ReadPoolStats()
	if gets, misses := pool.ReplyGets-pool0.ReplyGets, pool.ReplyMisses-pool0.ReplyMisses; gets < callers*calls || misses*2 > gets {
		t.Errorf("%d replies drew %d pooled frames, %d of them new: the stubs do not recycle their replies", callers*calls, gets, misses)
	}
}
