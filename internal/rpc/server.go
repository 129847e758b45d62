package rpc

import (
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/wire"
)

// Request is what a server-side Handler receives: the caller's identity
// and the request frame (its envelope and the opaque request payload).
type Request struct {
	From  wire.Addr
	ReqID uint64
	Kind  wire.Kind
	Frame *wire.Frame
}

// Handler executes one request and returns the reply payload (sent as
// replyKind) or an error payload (sent as KindError). Handlers run
// concurrently for distinct requests.
type Handler interface {
	Handle(req *Request) (replyKind wire.Kind, reply []byte, errPayload []byte)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) (wire.Kind, []byte, []byte)

// Handle implements Handler.
func (fn HandlerFunc) Handle(req *Request) (wire.Kind, []byte, []byte) { return fn(req) }

// ServerStats counts server activity.
type ServerStats struct {
	Executed uint64 // requests actually run
}

// Server adapts an application Handler to kernel.Handler: it runs the
// handler and answers with Context.Respond. It keeps no dedup state and
// does no lookup: the kernel presented the request to the node's
// session.Table before dispatching it here, so a retransmission of a
// request that already ran never reaches the handler — it was answered
// from the cached reply, dropped while the original is in flight, or
// refused with session.ExpiredPayload() — and Respond commits this
// reply for the next one.
type Server struct {
	handler  Handler
	executed atomic.Uint64
}

// NewServer wraps handler.
func NewServer(handler Handler) *Server { return &Server{handler: handler} }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{Executed: s.executed.Load()}
}

// HandleFrame implements kernel.Handler.
func (s *Server) HandleFrame(ktx *kernel.Context, f *wire.Frame) {
	s.executed.Add(1)
	kind, reply, errPayload := s.handler.Handle(&Request{
		From:  f.Src,
		ReqID: f.ReqID,
		Kind:  f.Kind,
		Frame: f,
	})
	if f.Flags&wire.FlagOneWay != 0 {
		return
	}
	if errPayload != nil {
		kind, reply = wire.KindError, errPayload
	} else if kind == wire.KindInvalid {
		kind = wire.KindReply
	}
	_ = ktx.Respond(f, kind, reply)
}
