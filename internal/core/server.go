package core

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"sync"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// mintCap draws an unforgeable, nonzero capability token.
func mintCap() (uint64, error) {
	var b [8]byte
	for {
		if _, err := cryptorand.Read(b[:]); err != nil {
			return 0, err
		}
		if v := binary.BigEndian.Uint64(b[:]); v != 0 {
			return v, nil
		}
	}
}

// serverObject is the server-side half of an export: it receives request
// frames for one service, decodes the invocation (installing proxies for
// any references in the arguments), runs the service, and encodes the
// results (lowering any proxies/services in them to references). It sits
// behind an rpc.Server; the kernel's dedup lookup in front of that
// suppresses retransmitted requests (at-most-once execution).
type serverObject struct {
	rt *Runtime
	// cap is the capability token invocations must present; zero means the
	// export is unprotected.
	cap uint64

	mu  sync.RWMutex
	svc Service

	// callerCtx caches the base invocation context per caller address.
	// Every request needs WithCaller(Background, from), and the set of
	// callers is the set of live kernel contexts — small and stable — so
	// building the value context once per caller instead of once per
	// request removes two allocations from every dispatch. Capped as a
	// guard against pathological context churn.
	callerMu  sync.RWMutex
	callerCtx map[wire.Addr]context.Context

	srv *rpc.Server
}

// maxCallerCtxs bounds the per-export caller-context cache.
const maxCallerCtxs = 1024

func (so *serverObject) callerContext(from wire.Addr) context.Context {
	so.callerMu.RLock()
	ctx, ok := so.callerCtx[from]
	so.callerMu.RUnlock()
	if ok {
		return ctx
	}
	ctx = WithCaller(context.Background(), from)
	so.callerMu.Lock()
	if so.callerCtx == nil {
		so.callerCtx = make(map[wire.Addr]context.Context)
	}
	if len(so.callerCtx) < maxCallerCtxs {
		so.callerCtx[from] = ctx
	}
	so.callerMu.Unlock()
	return ctx
}

func newServerObject(rt *Runtime, svc Service) *serverObject {
	so := &serverObject{rt: rt, svc: svc}
	so.srv = rpc.NewServer(rpc.HandlerFunc(so.handle))
	return so
}

// rpcServer exposes the kernel handler to register.
func (so *serverObject) rpcServer() *rpc.Server { return so.srv }

// setService swaps the served implementation (used by factories whose
// Export half wraps the service with coordination logic).
func (so *serverObject) setService(svc Service) {
	so.mu.Lock()
	defer so.mu.Unlock()
	so.svc = svc
}

func (so *serverObject) service() Service {
	so.mu.RLock()
	defer so.mu.RUnlock()
	return so.svc
}

func (so *serverObject) handle(req *rpc.Request) (wire.Kind, []byte, []byte) {
	if req.Kind == KindBatch {
		reply, err := so.handleBatch(req.Frame.Payload)
		if err != nil {
			return 0, nil, EncodeInvokeError("batch", err)
		}
		return KindBatch, reply, nil
	}
	cap, method, args, err := DecodeRequest(so.rt.decoder(), req.Frame.Payload)
	if err != nil {
		return 0, nil, EncodeInvokeError("", &InvokeError{Code: CodeInternal, Msg: err.Error()})
	}
	if so.cap != 0 && cap != so.cap {
		return 0, nil, EncodeInvokeError(method, &InvokeError{Code: CodeDenied, Method: method, Msg: "capability required"})
	}
	so.rt.serveCalls.Inc()
	ctx, cancel := ServeContext(so.callerContext(req.From), &req.Frame.Envelope)
	defer cancel()
	finish := func(error) {}
	if req.Frame.Envelope.Trace != 0 {
		// Parent the serve span under the caller's stub span, so any
		// onward hops the service makes (smart-proxy fan-out included)
		// chain into the same tree.
		ctx, finish = so.rt.Tracer().StartSpan(ctx, "serve:"+method, so.rt.where)
	}
	results, err := so.service().Invoke(ctx, method, args)
	finish(err)
	if err != nil {
		return 0, nil, EncodeInvokeError(method, err)
	}
	lowered, err := so.rt.encodeOutbound(results)
	if err != nil {
		return 0, nil, EncodeInvokeError(method, &InvokeError{Code: CodeInternal, Method: method, Msg: err.Error()})
	}
	reply, err := EncodeResults(lowered)
	if err != nil {
		return 0, nil, EncodeInvokeError(method, &InvokeError{Code: CodeInternal, Method: method, Msg: err.Error()})
	}
	return wire.KindReply, reply, nil
}
