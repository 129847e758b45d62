package rpc

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/wire"
)

// Request is what a server-side Handler receives: the caller's identity
// and the opaque request payload.
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

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithReplyCache bounds the duplicate-suppression reply cache *per
// client* (default 128 entries each). Zero disables at-most-once
// filtering entirely, degrading the server to at-least-once execution —
// kept as an experiment knob (E7).
func WithReplyCache(entries int) ServerOption {
	return func(s *Server) { s.cacheSize = entries }
}

// defaultClientLimit bounds how many distinct clients' conversation tables
// the server retains (LRU-evicted). A client whose table was evicted
// falls back to at-least-once for retransmissions of old requests — the
// standard trade-off of bounded conversation state.
const defaultClientLimit = 256

// ServerStats counts server activity.
type ServerStats struct {
	Executed    uint64 // requests actually run
	DupCached   uint64 // duplicates answered from the reply cache
	DupInFlight uint64 // duplicates dropped because the original is still executing
}

// Server wraps an application Handler with at-most-once semantics: each
// (caller, request id) executes once; retransmitted requests are answered
// from a bounded per-client reply cache or ignored while the original is
// in flight. Conversation state is isolated per client, so one chatty
// caller cannot evict another's duplicate-suppression entries. Server
// implements kernel.Handler, so it registers directly as an object.
type Server struct {
	handler     Handler
	cacheSize   int
	clientLimit int // defaultClientLimit; a field so a test can shrink it

	mu          sync.Mutex
	clients     map[wire.Addr]*clientState
	clientOrder *list.List // LRU of clients: front = most recent

	executed    atomic.Uint64
	dupCached   atomic.Uint64
	dupInFlight atomic.Uint64
}

// clientState is one caller's conversation table.
type clientState struct {
	addr     wire.Addr
	lruEl    *list.Element
	inflight map[uint64]bool
	cache    map[uint64]*list.Element
	order    *list.List // LRU of entries
}

type cacheEntry struct {
	reqID uint64
	kind  wire.Kind
	reply []byte
	isErr bool
}

// NewServer wraps handler with duplicate suppression.
func NewServer(handler Handler, opts ...ServerOption) *Server {
	s := &Server{
		handler:     handler,
		cacheSize:   128,
		clientLimit: defaultClientLimit,
		clients:     make(map[wire.Addr]*clientState),
		clientOrder: list.New(),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Executed:    s.executed.Load(),
		DupCached:   s.dupCached.Load(),
		DupInFlight: s.dupInFlight.Load(),
	}
}

// client returns (creating if needed) the conversation table for addr,
// marking it most-recently-used and evicting the coldest client beyond
// the limit.
func (s *Server) client(addr wire.Addr) *clientState {
	cs, ok := s.clients[addr]
	if ok {
		s.clientOrder.MoveToFront(cs.lruEl)
		return cs
	}
	cs = &clientState{
		addr:     addr,
		inflight: make(map[uint64]bool),
		cache:    make(map[uint64]*list.Element),
		order:    list.New(),
	}
	cs.lruEl = s.clientOrder.PushFront(cs)
	s.clients[addr] = cs
	for len(s.clients) > s.clientLimit {
		coldest := s.clientOrder.Back()
		if coldest == nil {
			break
		}
		s.clientOrder.Remove(coldest)
		delete(s.clients, coldest.Value.(*clientState).addr)
	}
	return cs
}

// HandleFrame implements kernel.Handler.
func (s *Server) HandleFrame(ktx *kernel.Context, f *wire.Frame) {
	oneWay := f.Flags&wire.FlagOneWay != 0

	if s.cacheSize > 0 && !oneWay {
		s.mu.Lock()
		cs := s.client(f.Src)
		if el, ok := cs.cache[f.ReqID]; ok {
			ent := el.Value.(*cacheEntry)
			cs.order.MoveToFront(el)
			s.mu.Unlock()
			s.dupCached.Add(1)
			if ent.isErr {
				_ = ktx.RespondError(f, ent.reply)
			} else {
				_ = ktx.Respond(f, ent.kind, ent.reply)
			}
			return
		}
		if cs.inflight[f.ReqID] {
			s.mu.Unlock()
			s.dupInFlight.Add(1)
			return // original execution will answer; client keeps waiting
		}
		cs.inflight[f.ReqID] = true
		s.mu.Unlock()
	}

	s.executed.Add(1)
	kind, reply, errPayload := s.handler.Handle(&Request{
		From:  f.Src,
		ReqID: f.ReqID,
		Kind:  f.Kind,
		Frame: f,
	})

	if s.cacheSize > 0 && !oneWay {
		s.remember(f.Src, f.ReqID, kind, reply, errPayload)
	}
	if oneWay {
		return
	}
	if errPayload != nil {
		_ = ktx.RespondError(f, errPayload)
		return
	}
	if kind == wire.KindInvalid {
		kind = wire.KindReply
	}
	_ = ktx.Respond(f, kind, reply)
}

func (s *Server) remember(from wire.Addr, reqID uint64, kind wire.Kind, reply, errPayload []byte) {
	ent := &cacheEntry{reqID: reqID, kind: kind, reply: reply}
	if errPayload != nil {
		ent.isErr = true
		ent.reply = errPayload
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.client(from)
	delete(cs.inflight, reqID)
	if el, ok := cs.cache[reqID]; ok {
		el.Value = ent
		cs.order.MoveToFront(el)
		return
	}
	cs.cache[reqID] = cs.order.PushFront(ent)
	for len(cs.cache) > s.cacheSize {
		oldest := cs.order.Back()
		if oldest == nil {
			break
		}
		cs.order.Remove(oldest)
		delete(cs.cache, oldest.Value.(*cacheEntry).reqID)
	}
}

// cacheLen reports one client's cached-entry count (tests).
func (s *Server) cacheLen(from wire.Addr) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.clients[from]
	if !ok {
		return 0
	}
	return len(cs.cache)
}
