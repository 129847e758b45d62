package rpc

import (
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/session"
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
	Executed    uint64 // requests actually run
	DupCached   uint64 // retransmissions answered from the cached reply
	DupInFlight uint64 // retransmissions dropped because the original is still executing
	DupRefused  uint64 // retransmissions too old to answer, refused with session-expired
}

// Server wraps an application Handler with at-most-once semantics: each
// (caller, request id) executes once. It keeps no state for that: a
// request is presented to the hosting node's session.Table under the
// identity every frame carries (sessionOf), so a retransmission is
// answered from the cached reply, dropped while the original is in
// flight, or — when the table has forgotten it — refused with
// session.ExpiredPayload(), never run again. A session-stamped request
// was deduplicated by the kernel under (session, seq) on its way here and
// is not looked up twice. Server implements kernel.Handler, so it
// registers directly as an object.
type Server struct {
	handler Handler

	executed    atomic.Uint64
	dupCached   atomic.Uint64
	dupInFlight atomic.Uint64
	dupRefused  atomic.Uint64
}

// NewServer wraps handler with duplicate suppression.
func NewServer(handler Handler) *Server { return &Server{handler: handler} }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Executed:    s.executed.Load(),
		DupCached:   s.dupCached.Load(),
		DupInFlight: s.dupInFlight.Load(),
		DupRefused:  s.dupRefused.Load(),
	}
}

// sessionOf names f's transmission identity to a session.Table. A request
// id is a conversation id over a sequence number (kernel.NewContext): the
// session is (source address, conversation) and the sequence gives the
// table's floor its order (offset by one, the floor starts at 0). The
// key's 96 bits are hashed into the table's 64: two conversations, or one
// and a minted session id, collide with probability 2⁻⁶⁴ a pair.
func sessionOf(f *wire.Frame) (sid, seq uint64) {
	sid = mix64(mix64(uint64(f.Src.Node)<<32|uint64(f.Src.Context)) + f.ReqID>>32)
	if sid == 0 {
		sid = 1 // 0 means "no session" to the table
	}
	return sid, f.ReqID&0xFFFFFFFF + 1
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// HandleFrame implements kernel.Handler.
func (s *Server) HandleFrame(ktx *kernel.Context, f *wire.Frame) {
	oneWay := f.Flags&wire.FlagOneWay != 0

	var tab *session.Table
	var sid, seq uint64
	if _, _, stamped := kernel.SessionStamp(f); !stamped && !oneWay {
		tab = ktx.Node().SessionTable()
		sid, seq = sessionOf(f)
		// rpc.Client flags every re-send and the network never duplicates a
		// frame, so an unflagged request has not been presented before.
		switch verdict, ent := tab.BeginTransmission(sid, seq, f.Flags&wire.FlagRetransmit != 0); verdict {
		case session.Replay:
			s.dupCached.Add(1)
			_ = ktx.Respond(f, ent.Kind, ent.Payload)
			return
		case session.InFlight:
			s.dupInFlight.Add(1)
			return // original execution will answer; client keeps waiting
		case session.Expired:
			s.dupRefused.Add(1)
			_ = ktx.RespondError(f, session.ExpiredPayload())
			return
		}
	}

	s.executed.Add(1)
	kind, reply, errPayload := s.handler.Handle(&Request{
		From:  f.Src,
		ReqID: f.ReqID,
		Kind:  f.Kind,
		Frame: f,
	})
	if oneWay {
		return
	}
	if errPayload != nil {
		kind, reply = wire.KindError, errPayload
	} else if kind == wire.KindInvalid {
		kind = wire.KindReply
	}
	if tab != nil {
		tab.Commit(sid, seq, kind, kind == wire.KindError, reply)
	}
	_ = ktx.Respond(f, kind, reply)
}
