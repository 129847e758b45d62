package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/overload"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// TestUnstampedPutNeverFailsOverAfterRunning: an unstamped, non-idempotent
// put runs on the primary and its reply is lost; its retransmission
// arrives while two other calls hold the primary's one admission slot and
// its one-deep queue. The retransmission is answered from the primary's
// dedup table, so the stub never sees a pushback — which would read as
// "never executed" and license a failover that runs the put again on the
// independent alternate.
func TestUnstampedPutNeverFailsOverAfterRunning(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	ctl := overload.NewController(overload.Config{
		MinLimit: 1, MaxLimit: 1, InitialLimit: 1,
		QueueLimit: 1, QueueDeadline: time.Minute,
	}, nil, "")
	runtime := func(id wire.NodeID, opts ...kernel.NodeOption) *Runtime {
		ep, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		node := kernel.NewNode(ep, opts...)
		t.Cleanup(func() { node.Close() })
		ktx, err := node.NewContext()
		if err != nil {
			t.Fatal(err)
		}
		return NewRuntime(ktx, WithClient(rpc.NewClient(ktx, rpc.WithRetryInterval(10*time.Millisecond), rpc.WithMaxAttempts(500))))
	}
	client, primary, blockers, alternate := runtime(1), runtime(2, kernel.WithAdmission(ctl)), runtime(3), runtime(4)

	var runs atomic.Int64
	started, release := make(chan struct{}, 2), make(chan struct{})
	t.Cleanup(func() { close(release) })
	service := func(first func()) Service {
		return ServiceFunc(func(_ context.Context, method string, _ []any) ([]any, error) {
			switch method {
			case "block":
				started <- struct{}{}
				<-release
			case "put":
				if runs.Add(1) == 1 {
					first()
				}
			}
			return nil, nil
		})
	}
	ref1, err := primary.Export(service(func() { net.Partition(1, 2) }), "KV") // the put's reply is lost
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := alternate.Export(service(func() {}), "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	stub := p.(*Stub)
	stub.SetAlternates([]codec.Ref{ref1, ref2})

	errc := make(chan error, 1)
	go func() {
		_, err := stub.Invoke(context.Background(), "put", "k", int64(1))
		errc <- err
	}()
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	await("the put to run", func() bool { return runs.Load() == 1 })
	blocker, err := blockers.Import(ref1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go func() { _, _ = blocker.Invoke(context.Background(), "block") }()
	}
	<-started
	await("the second block call to queue", func() bool { return ctl.Status().Queued == 1 })
	net.Heal(1, 2)

	if err := <-errc; err != nil {
		t.Errorf("put answered %v, want its cached reply", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("put ran %d times across primary and alternate, want 1", n)
	}
	if n := stub.Failovers(); n != 0 {
		t.Errorf("stub failed over %d times, want 0", n)
	}
}
