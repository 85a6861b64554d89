package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/dedup"
	"repro/internal/events"
	"repro/internal/giop"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// Handler executes one inbound request on a lane worker. It returns the
// CDR-encoded reply body, or an error: a *Exception is encoded verbatim
// as a system exception; any other error becomes CORBA UNKNOWN. req.Body
// and req.Contexts[i].Data are valid until Dispatch returns — returning
// req.Body as the reply is legal and copy-free — and a handler that keeps
// either past its return calls req.Retain first; see the package comment.
type Handler interface {
	Dispatch(req *Request) ([]byte, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) ([]byte, error)

// Dispatch implements Handler.
func (f HandlerFunc) Dispatch(req *Request) ([]byte, error) { return f(req) }

// Request is one decoded inbound invocation as a lane worker sees it:
// the GIOP fields plus the QoS service contexts already parsed.
type Request struct {
	Key       string
	Operation string
	// Body is a view of the request's frame, valid until Dispatch returns
	// (returning it as the reply is legal and copy-free): a handler that
	// keeps it past its return calls Retain first, and none may write to
	// it — see the package comment.
	Body []byte
	// Priority is the propagated RT-CORBA CORBA priority (0 if absent).
	Priority int16
	// Oneway reports that no reply is expected.
	Oneway  bool
	settled bool // settleHook's mark, in Oneway's padding: Request stays 208 B
	// Deadline is the absolute wall-clock expiry from the end-to-end
	// deadline context (zero time if the client set none).
	Deadline time.Time
	// SentAt is the client's send instant from the invocation-timestamp
	// context (zero time if absent).
	SentAt time.Time
	// TraceCtx is the propagated client span (invalid if absent).
	TraceCtx trace.SpanContext
	// Peer is the remote address of the carrying connection.
	Peer string
	// Contexts holds the request's raw GIOP service contexts, so
	// servants can read application-level ones (the pub/sub event
	// descriptor) beyond the standard QoS set parsed above. Their Data
	// are views of the frame, with Body's lifetime.
	Contexts []giop.ServiceContext

	// ft is the at-most-once dedup key from the FT request context,
	// valid when hasFT is set (two-way requests only).
	ft    giop.FTKey
	hasFT bool
	// frame is the pooled buffer Body and Contexts alias, when the frame
	// is borrowed: the lane worker returns it once the request is settled.
	frame *[]byte
}

// Retain makes req.Body and req.Contexts[i].Data the handler's to keep
// past Dispatch's return: the request's frame is left to the collector
// instead of being recycled. It is for the worker goroutine, inside
// Dispatch.
func (r *Request) Retain() { r.frame = nil }

// LaneConfig sizes one priority lane of the server's worker pool,
// mirroring rtcorba.ThreadPool lanes: a lane serves every request whose
// CORBA priority is >= its Priority floor and below the next lane's.
type LaneConfig struct {
	// Priority is the lane's CORBA-priority floor.
	Priority int16
	// Workers is the number of dispatch goroutines (>= 1).
	Workers int
	// QueueLimit bounds the lane's request queue; a request arriving at
	// a full queue is refused with TRANSIENT minor 2 (the overload shed
	// the client-side breaker counts). Default 256.
	//
	// Unlike the simulated rtcorba lanes there is no configurable
	// eviction policy here: the wire plane always refuses the newcomer
	// (TailDrop); queued requests can still be shed at dequeue when
	// their deadline has already expired.
	QueueLimit int
}

// ServerConfig configures a wire Server.
type ServerConfig struct {
	// Lanes of the worker pool, ascending priority floors. Default: one
	// lane at floor 0 with GOMAXPROCS workers.
	Lanes []LaneConfig
	// ByteOrder for replies (the zero value is canonical big-endian). A
	// test seam: no program sets it; the interop tests run the raw-GIOP
	// scripts in both orders.
	ByteOrder cdr.ByteOrder
	// Registry receives wire.server.* telemetry (private one if nil).
	Registry *telemetry.Registry
	// Tracer receives dispatch spans (nil = no tracing).
	Tracer *Tracer
	// Bus, when set, receives shed records (events.KindShed).
	Bus *events.Bus
	// Name labels telemetry and bus records ("wire.server" default).
	Name string
}

// ftCacheCap bounds the at-most-once reply cache (internal/dedup), which
// settles a failover retry of an FT-tagged request (context 0x13), on any
// connection, as ft_replay or ft_parked instead of running it twice.
const ftCacheCap = 8192

// laneWork is one request's record from admission to settle, passed by
// value through the lane channel or the dedup cache's parked waiters.
type laneWork struct {
	conn     *serverConn
	req      *Request
	id       uint32
	enqueued time.Time
	span     trace.SpanContext
}

// outcome names the mechanism that ended a request: one each, recorded by settle.
type outcome uint8

const (
	outcomeOK        outcome = iota // the servant returned a body
	outcomeException                // the servant or the key lookup raised
	outcomeQueueFull                // lane admission: QueueLimit requests queued
	outcomeDraining                 // Shutdown's drain had begun
	outcomeDeadline                 // the deadline context expired before dequeue
	outcomeCancelled                // a CancelRequest arrived before dequeue
	outcomeFTReplay                 // dedup cache: the original had completed
	outcomeFTParked                 // dedup cache: the original is in flight
)

// outcomes is what each outcome projects to. A reply is exc when set — the
// server shed the request, and publishes events.KindShed — else the
// servant's or the cached one settle is handed. dedup names the cache call:
// Complete caches an executed reply for replays, Abort forgets a request
// that never ran so a retry may. span is the span settle ends: the worker's
// wire.dispatch, or a wire.shed of its own.
var outcomes = [...]struct {
	label string
	reply bool
	exc   Exception
	dedup string
	span  string
}{
	outcomeOK:        {label: "ok", reply: true, dedup: "Complete", span: "wire.dispatch"},
	outcomeException: {label: "exception", reply: true, dedup: "Complete", span: "wire.dispatch"},
	outcomeQueueFull: {label: "queue_full", reply: true, exc: Exception{ID: giop.ExcTransient, Minor: giop.MinorShed}, dedup: "Abort"},
	outcomeDraining:  {label: "draining", reply: true, exc: Exception{ID: giop.ExcTransient, Minor: giop.MinorShed}, dedup: "Abort"},
	outcomeDeadline:  {label: "deadline", reply: true, exc: Exception{ID: giop.ExcTimeout, Minor: 1}, dedup: "Abort", span: "wire.shed"},
	outcomeCancelled: {label: "cancelled"},
	outcomeFTReplay:  {label: "ft_replay", reply: true},
	outcomeFTParked:  {label: "ft_parked"},
}

type serverLane struct {
	cfg LaneConfig
	ch  chan laneWork
	// label is the priority floor as a telemetry label value.
	label string
	// outcomes is wire.server.outcomes{lane,outcome} by outcome.
	outcomes counterVec
}

// Server is the real-socket GIOP server: an accept loop feeding
// goroutine-per-connection readers, which parse frames and enqueue
// requests onto per-priority lanes drained by a bounded worker pool.
type Server struct {
	cfg   ServerConfig
	reg   *telemetry.Registry
	order cdr.ByteOrder
	name  string

	// servants is read on every dispatch by workers of every lane, so it
	// is a copy-on-write map behind a pointer: lookup takes no lock, and
	// Register (under mu) publishes a fresh copy.
	servants atomic.Pointer[map[string]Handler]

	mu    sync.Mutex
	conns map[*serverConn]struct{}

	// requests is wire.server.requests{lane} by lane; frames counts the
	// replies a lane queued and flushes the Writes that carried them:
	// wire.server.frames{lane} / wire.server.flushes{lane}.
	requests, frames, flushes counterVec

	ftCache *dedup.Cache[laneWork]

	lanes   []*serverLane
	workers sync.WaitGroup
	readers sync.WaitGroup
	// inflight counts accepted requests: queued, executing, or settled
	// with the reply not yet flushed. A drain waits for it to reach zero;
	// release pokes drained when it does. (An atomic, not a WaitGroup:
	// admission adds from zero concurrently with the drain's wait.)
	inflight atomic.Int64
	drained  chan struct{}

	lis      net.Listener
	draining atomic.Bool
	closed   atomic.Bool
}

// maxCancelled bounds a connection's set of cancelled request ids.
const maxCancelled = 1024

type serverConn struct {
	connWriter
	s    *Server
	peer string
	// cancelled holds request IDs a CancelRequest asked to abandon;
	// checked at dequeue (best-effort, like the CORBA semantics). A cancel
	// that arrives after its request was dequeued — the usual case: the
	// caller timed out while the servant ran — is never looked up, so the
	// read loop counts what it stores (cancels) and forgets the whole set
	// every maxCancelled: a long-lived connection's set stays bounded, and
	// a stale id is gone long before request ids wrap.
	cancelled sync.Map
	cancels   int
	closeOnce sync.Once
}

// NewServer builds a server and starts its lane workers; connections
// are attached with Serve (a listener) or ServeConn (a single net.Conn,
// e.g. one end of a net.Pipe in tests).
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.Lanes) == 0 {
		cfg.Lanes = []LaneConfig{{Priority: 0, Workers: runtime.GOMAXPROCS(0), QueueLimit: 1024}}
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		order:   cfg.ByteOrder,
		name:    cfg.Name,
		conns:   make(map[*serverConn]struct{}),
		ftCache: dedup.New[laneWork](ftCacheCap),
		drained: make(chan struct{}, 1),
	}
	s.servants.Store(&map[string]Handler{})
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	if s.name == "" {
		s.name = "wire.server"
	}
	s.requests = counterVec{reg: s.reg, name: "wire.server.requests", vary: "lane"}
	s.frames = counterVec{reg: s.reg, name: "wire.server.frames", vary: "lane"}
	s.flushes = counterVec{reg: s.reg, name: "wire.server.flushes", vary: "lane"}
	prev := int32(-1)
	for _, lc := range cfg.Lanes {
		if lc.Workers < 1 {
			return nil, fmt.Errorf("wire: lane %d: workers must be >= 1", lc.Priority)
		}
		if int32(lc.Priority) <= prev {
			return nil, fmt.Errorf("wire: lane priorities must be ascending (floor %d)", lc.Priority)
		}
		prev = int32(lc.Priority)
		if lc.QueueLimit <= 0 {
			lc.QueueLimit = 256
		}
		lane := &serverLane{
			cfg:   lc,
			ch:    make(chan laneWork, lc.QueueLimit),
			label: strconv.Itoa(int(lc.Priority)),
		}
		lane.outcomes = counterVec{reg: s.reg, name: "wire.server.outcomes",
			fixed: []telemetry.Label{telemetry.L("lane", lane.label)}, vary: "outcome"}
		s.lanes = append(s.lanes, lane)
		for i := 0; i < lc.Workers; i++ {
			s.workers.Add(1)
			go s.worker(lane)
		}
	}
	return s, nil
}

// Registry returns the server's telemetry registry (for /metrics).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Register binds a servant to an object key. Registering the empty key
// installs a fallback receiving every unmatched key.
func (s *Server) Register(key string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.servants.Load()
	next := make(map[string]Handler, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = h
	s.servants.Store(&next)
}

// lookup resolves the servant for key (exact, then "" fallback).
func (s *Server) lookup(key string) (Handler, bool) {
	servants := *s.servants.Load()
	if h, ok := servants[key]; ok {
		return h, true
	}
	h, ok := servants[""]
	return h, ok
}

// laneFor returns the highest lane whose floor is <= p (the lowest lane
// when p is below every floor), rtcorba's banding rule.
func (s *Server) laneFor(p int16) *serverLane {
	lane := s.lanes[0]
	for _, l := range s.lanes[1:] {
		if p >= l.cfg.Priority {
			lane = l
		}
	}
	return lane
}

// Serve accepts connections from lis until the listener closes (or
// Shutdown runs) and serves each on its own goroutine. It returns the
// accept error that ended the loop (nil after Shutdown).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			if s.closed.Load() || s.draining.Load() {
				return nil
			}
			return err
		}
		s.reg.Counter("wire.server.accepts").Inc()
		s.readers.Add(1)
		go func() {
			defer s.readers.Done()
			s.ServeConn(nc)
		}()
	}
}

// Listen binds a TCP listener on addr (port 0 picks a free port),
// starts Serve on a background goroutine, and returns the bound
// address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.readers.Add(1)
	go func() {
		defer s.readers.Done()
		_ = s.Serve(lis)
	}()
	return lis.Addr(), nil
}

// ServeConn runs the read loop for one established connection until the
// peer closes it, a protocol error occurs, or the server shuts down. It
// is the loopback entry point: tests hand it one end of a net.Pipe.
func (s *Server) ServeConn(nc net.Conn) {
	c := &serverConn{s: s, peer: nc.RemoteAddr().String()}
	c.nc = nc
	c.failed = func(error) {
		// A peer that went away or stopped reading costs this connection
		// only; the worker that hit it carries on with its other replies.
		s.reg.Counter("wire.server.write_errors").Inc()
		c.close()
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	g := s.reg.Gauge("wire.server.connections")
	s.mu.Unlock()
	g.Add(1)
	defer func() {
		c.close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		g.Add(-1)
	}()

	// Each frame is read once into memory of its own, and the message
	// decoded from it — the Request a Handler sees — aliases it. A frame
	// below largeFrame is allocated at its exact size (hdr saves ReadFrame
	// the header's allocation) and is garbage with its message: that small
	// is cheaper to allocate than to pool. A larger one is borrowed from
	// the write pool until its request is settled (one that never reaches
	// a lane worker — not a Request, refused, an FT replay — is garbage
	// like a small one). A GIOP Request, of any size, is decoded into req
	// on this goroutine's stack — handleRequest copies what the lane
	// needs — and an operation name equal to the previous request's is
	// that string again, not a copy.
	br := bufio.NewReaderSize(nc, 32<<10)
	hdr := make([]byte, giop.HeaderSize)
	var req giop.Request
	// What the read loop answers itself — a replay, a refusal — goes out at
	// once: its batch never holds a reply past the request that caused it.
	b := &replyBatch{s: s}
	for {
		scratch := hdr
		var borrowed *[]byte
		if h, err := br.Peek(giop.HeaderSize); err == nil {
			// (A header that is short or invalid is ReadFrame's to report.)
			if n, err := giop.FrameSize(h, giop.DefaultMaxMessage); err == nil && n >= largeFrame && n <= maxPooledWrite {
				borrowed = getFrameBuf(n)
				scratch = *borrowed
			}
		}
		frame, err := giop.ReadFrame(br, giop.DefaultMaxMessage, scratch)
		if err != nil {
			if err != io.EOF && !s.closed.Load() {
				s.reg.Counter("wire.server.read_errors").Inc()
				c.send(&giop.MessageError{})
			}
			return
		}
		var msg giop.Message
		if giop.MsgType(frame[7]) == giop.MsgRequest {
			err = giop.DecodeRequest(frame, &req, req.Operation)
		} else {
			msg, err = giop.Decode(frame)
		}
		if err != nil {
			s.reg.Counter("wire.server.protocol_errors").Inc()
			c.send(&giop.MessageError{})
			return
		}
		switch m := msg.(type) {
		case nil: // the Request in req
			s.handleRequest(c, &req, b, borrowed)
		case *giop.CancelRequest:
			if c.cancels++; c.cancels > maxCancelled {
				c.cancelled.Clear()
				c.cancels = 1
			}
			c.cancelled.Store(m.RequestID, struct{}{})
			s.reg.Counter("wire.server.cancels").Inc()
		case *giop.LocateRequest:
			_, ok := s.lookup(string(m.ObjectKey))
			status := giop.LocateObjectHere
			if !ok {
				status = giop.LocateUnknownObject
			}
			c.send(&giop.LocateReply{RequestID: m.RequestID, Status: status})
		case *giop.CloseConnection:
			return
		case *giop.MessageError:
			s.reg.Counter("wire.server.protocol_errors").Inc()
			return
		default:
			// A Reply or LocateReply arriving at a server is a protocol
			// violation from this side of the connection.
			s.reg.Counter("wire.server.protocol_errors").Inc()
			c.send(&giop.MessageError{})
			return
		}
	}
}

// handleRequest parses the request's QoS contexts and enqueues it on
// its priority lane, settling it at once when the dedup cache answers
// for it or admission refuses it; b is the read loop's batch. frame is
// the pooled buffer m aliases, if its frame is borrowed.
func (s *Server) handleRequest(c *serverConn, m *giop.Request, b *replyBatch, frame *[]byte) {
	qos := giop.ParseRequestQoS(m.ServiceContexts)
	req := &Request{
		Key:       string(m.ObjectKey),
		Operation: m.Operation,
		Body:      m.Body,
		Priority:  qos.Priority,
		TraceCtx:  trace.SpanContext{Trace: trace.TraceID(qos.TraceID), Span: trace.SpanID(qos.SpanID)},
		Peer:      c.peer,
		Oneway:    !m.ResponseExpected,
		Contexts:  m.ServiceContexts,
		ft:        qos.FT,
		hasFT:     qos.HasFT && m.ResponseExpected,
	}
	if qos.Deadline > 0 {
		req.Deadline = time.Unix(0, qos.Deadline)
	}
	if qos.SentAt > 0 {
		req.SentAt = time.Unix(0, qos.SentAt)
	}
	if !req.hasFT {
		// The reply cache keeps an FT request's reply body, which an echo
		// servant aliases to the frame: those frames stay garbage.
		req.frame = frame
	}

	lane := s.laneFor(req.Priority)
	s.requests.get(lane.label).Inc()
	work := laneWork{conn: c, req: req, id: m.RequestID, enqueued: time.Now()}
	b.lane = lane
	defer b.flush()
	if req.hasFT {
		switch verdict, cached := s.ftCache.Admit(req.ft, work); verdict {
		case dedup.Replay:
			s.settle(b, work, outcomeFTReplay, cached)
			return
		case dedup.Parked:
			s.settle(b, work, outcomeFTParked, dedup.Reply{})
			return
		}
	}
	// Counted before the drain check: either Shutdown sees the request or
	// the request sees the drain.
	s.inflight.Add(1)
	o := outcomeDraining
	if !s.draining.Load() {
		select {
		case lane.ch <- work:
			return
		default:
			o = outcomeQueueFull
		}
	}
	s.release(1)
	s.settle(b, work, o, dedup.Reply{})
}

// release takes n finished requests out of the in-flight count.
func (s *Server) release(n int) {
	if s.inflight.Add(int64(-n)) == 0 && s.draining.Load() {
		select {
		case s.drained <- struct{}{}:
		default:
		}
	}
}

// Flush points. A lane worker does not write a reply when it has one: it
// queues it on the reply's connection and flushes the connections it
// dirtied at the first of four events. The numbers are qosperf's
// mixed_flood (32 BE callers saturating the 1-worker BE lane, one timed EF
// caller; medians of 3 × 6 s on 2 vCPUs; before: 81 k ops_per_s, EF
// lat_p99_us 577):
//
//   - its lane channel is momentarily empty — there is nothing left to
//     share a write with, so an uncontended request is answered exactly as
//     before (echo_small is unchanged) while a backlog's replies leave in
//     one Write per burst instead of one each (58 % of mixed_flood's CPU
//     was inside syscalls, 22 % in the server's per-reply Write);
//   - maxHeldReplies requests have been settled since the last flush.
//     Flushing every reply (1): 116 k ops_per_s, EF p99 458 µs; every 4:
//     148 k, 303; every 8: 180 k, 261; every 16: 183 k, 216; every 32:
//     186 k, 220. The gain has flattened by 16, which is half the flood —
//     the callers of one batch are back in the queue while the next is
//     served — and the first reply of a batch waits for at most 15 more
//     zero-work servants;
//   - a servant ran longer than slowServant: the lane's requests are not
//     free, so the reply just produced, and any held before it, leave now
//     instead of waiting out the next servant as well
//     (TestFlushHeldTimeBound: behind a backlog of 5 ms servants, reply k
//     is out before servant k+1 returns). No qosperf workload has a
//     servant that does work, so the threshold is not tuned: 20 µs is five
//     write(2)s (≈ 4 µs each), where sharing one can save at most a sixth
//     of what the reply cost. It is an optimisation over the next bound,
//     not a guarantee of its own;
//   - maxHeldTime has passed since the worker took its next request with
//     replies in hand: a watchdog timer flushes them beside the worker,
//     whatever the worker is doing. This is the guarantee — no reply is
//     held for longer than maxHeldTime plus the timer's scheduling delay —
//     and it is what covers a fast servant followed by a slow or blocked
//     one: before the writer reply k was in the kernel before servant k+1
//     started, and k+1 may be waiting for something k's caller only does
//     once it has k's reply. 250 µs is about one round trip of a flood
//     caller (32 callers over ≈ 170 k replies a second): a held reply
//     costs its caller at most about one more. Under mixed_flood a batch
//     of 16 is complete ≈ 95 µs after the first hold; the timer was armed
//     once per batch (≈ 18 k times per 2 s repetition) and fired 2–10
//     times, as often with 100 µs as with 1 ms — worker pauses, not the
//     threshold.
const (
	maxHeldReplies = 16
	slowServant    = 20 * time.Microsecond
	maxHeldTime    = 250 * time.Microsecond
)

// replyBatch is the set of connections a goroutine has queued replies on
// and not yet flushed. A lane worker has one, and so has each connection's
// read loop, which flushes it at the end of every request.
type replyBatch struct {
	s    *Server
	lane *serverLane
	// settled counts the worker's requests since the last flush. They
	// leave s.inflight only then, so Shutdown cannot close a connection
	// under a held reply.
	settled int
	// watchdog flushes what a lane worker still holds maxHeldTime after
	// hold armed it; it is created by the first hold.
	watchdog *time.Timer

	// mu guards the fields below: the watchdog runs beside the worker.
	mu sync.Mutex
	// conns are the dirtied connections — nearly always one — each with
	// the ticket of the last reply queued on it.
	conns []heldReply
	// frames and flushes are what the batch has queued, and what queueing
	// a large reply wrote on the spot, since the lane's counters were last
	// brought up to date.
	frames, flushes int
	armed           bool
}

type heldReply struct {
	c      *serverConn
	ticket uint64
}

// reply queues one Reply on c, to leave with the batch's next flush. A
// small reply is encoded from a value on this goroutine's stack; a large
// one keeps its allocation, which on echo_large is one of the lane
// worker's that pace the collector (DESIGN §12, "Why the large path still
// allocates its small objects").
func (b *replyBatch) reply(c *serverConn, id uint32, status giop.ReplyStatus, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ticket uint64
	var wrote bool
	if len(body) < largeFrame {
		rep, order := giop.Reply{RequestID: id, Status: status, Body: body}, c.s.order
		ticket, wrote = c.queue(len(body), func(dst []byte) []byte { return rep.AppendTo(dst, order) }, time.Time{})
	} else {
		ticket, wrote = c.queueMsg(&giop.Reply{RequestID: id, Status: status, Body: body}, len(body))
	}
	b.frames++
	if wrote {
		b.flushes++
	}
	for i := range b.conns {
		if b.conns[i].c == c {
			b.conns[i].ticket = ticket
			return
		}
	}
	b.conns = append(b.conns, heldReply{c, ticket})
}

// hold is the worker going on to its next request with replies in hand:
// from here the watchdog bounds how long they wait.
func (b *replyBatch) hold() {
	b.mu.Lock()
	if len(b.conns) > 0 && !b.armed {
		if b.watchdog == nil {
			b.watchdog = time.AfterFunc(maxHeldTime, b.expire)
		} else {
			b.watchdog.Reset(maxHeldTime)
		}
		b.armed = true
	}
	b.mu.Unlock()
}

// expire is the watchdog firing.
func (b *replyBatch) expire() {
	b.mu.Lock()
	b.writeHeld()
	b.mu.Unlock()
}

// flush writes every held reply and releases the settled requests.
func (b *replyBatch) flush() {
	b.mu.Lock()
	if b.armed {
		b.watchdog.Stop()
	}
	b.writeHeld()
	b.mu.Unlock()
	if b.settled > 0 {
		b.s.release(b.settled)
		b.settled = 0
	}
}

// writeHeld, with mu held, flushes the dirtied connections — one Write
// each, none where another goroutine's flush already took the replies
// along. Every Write is bounded from the moment it starts (the writer's
// default bound), so a connection whose peer stopped reading fails alone:
// its writer closes it, and the connections behind it in the batch get a
// full bound of their own.
func (b *replyBatch) writeHeld() {
	for i, h := range b.conns {
		if wrote, _ := h.c.flush(h.ticket, time.Time{}); wrote {
			b.flushes++
		}
		b.conns[i] = heldReply{}
	}
	b.conns = b.conns[:0]
	if b.frames > 0 {
		b.s.frames.get(b.lane.label).Add(float64(b.frames))
	}
	if b.flushes > 0 {
		b.s.flushes.get(b.lane.label).Add(float64(b.flushes))
	}
	b.frames, b.flushes = 0, 0
	b.armed = false
}

// settleHook, when a test sets it, sees every request settle records.
var settleHook func(req *Request)

// settle records w's one outcome o on b's lane: the only code that counts,
// publishes and traces a request's fate, answers it and the replays parked
// on it, and tells the dedup cache. Its refusals are the sim ORB's bytes.
func (s *Server) settle(b *replyBatch, w laneWork, o outcome, rep dedup.Reply) {
	if settleHook != nil {
		settleHook(w.req)
	}
	f := &outcomes[o]
	b.lane.outcomes.get(f.label).Inc()
	if f.exc.ID != "" && s.cfg.Bus != nil {
		s.cfg.Bus.PublishAt(sim.Wall.Now(), events.KindShed, s.name,
			events.F("lane", b.lane.label), events.F("op", w.req.Operation), events.F("reason", f.label))
	}
	if tr := s.cfg.Tracer; tr != nil {
		switch f.span {
		case "wire.dispatch":
			tr.Finish(w.span, trace.String("outcome", f.label))
		case "wire.shed":
			tr.Finish(tr.StartChild(w.req.TraceCtx, f.span, trace.String("op", w.req.Operation), trace.String("reason", f.label)))
		}
	}
	if !f.reply || w.req.Oneway {
		return
	}
	if f.exc.ID != "" {
		rep = dedup.Reply{Status: giop.StatusSystemException, Body: giop.EncodeSystemException(f.exc.ID, f.exc.Minor, s.order)}
	}
	if w.req.hasFT {
		var parked []laneWork
		switch f.dedup {
		case "Complete":
			parked = s.ftCache.Complete(w.req.ft, rep)
		case "Abort":
			parked = s.ftCache.Abort(w.req.ft)
		}
		for _, p := range parked {
			b.reply(p.conn, p.id, rep.Status, rep.Body)
		}
	}
	b.reply(w.conn, w.id, rep.Status, rep.Body)
}

// worker drains one lane until its channel closes at shutdown, holding
// replies between flush points (see maxHeldReplies).
func (s *Server) worker(lane *serverLane) {
	defer s.workers.Done()
	laneL := telemetry.L("lane", lane.label)
	queueH := s.reg.Histogram("wire.server.queue_ms", laneL)
	execH := s.reg.Histogram("wire.server.exec_ms", laneL)
	b := &replyBatch{s: s, lane: lane}
	for {
		var w laneWork
		var ok bool
		select {
		case w, ok = <-lane.ch:
			b.hold()
		default:
			// Every path below comes back here, so whatever the last
			// request was — executed, shed, cancelled, oneway — a held
			// reply is never left behind an empty queue.
			b.flush()
			w, ok = <-lane.ch
		}
		if !ok {
			b.flush()
			return
		}
		now := time.Now()
		queueH.Observe(float64(now.Sub(w.enqueued)) / float64(time.Millisecond))
		b.settled++
		var ran time.Duration
		if _, cancelled := w.conn.cancelled.LoadAndDelete(w.id); cancelled && (!w.req.hasFT || s.ftCache.Cancel(w.req.ft)) {
			// (A replay parked on a cancelled request still wants the
			// outcome: then Cancel says no and the request executes.)
			s.settle(b, w, outcomeCancelled, dedup.Reply{})
		} else if !w.req.Deadline.IsZero() && now.After(w.req.Deadline) {
			s.settle(b, w, outcomeDeadline, dedup.Reply{})
		} else {
			ran = s.dispatch(b, w, execH)
		}
		if w.req.frame != nil {
			// Settled: the reply, if any, was encoded — copied — when it was
			// queued, so nothing the server owns refers to the frame now.
			putFrameBuf(w.req.frame)
		}
		if b.settled >= maxHeldReplies || ran > slowServant {
			b.flush()
		}
	}
}

// dispatch runs the servant and settles the request; it returns how long
// the servant ran.
func (s *Server) dispatch(b *replyBatch, w laneWork, execH *telemetry.Histogram) time.Duration {
	if tr := s.cfg.Tracer; tr != nil {
		w.span = tr.StartChild(w.req.TraceCtx, "wire.dispatch",
			trace.String("op", w.req.Operation),
			trace.String("lane", b.lane.label),
			trace.Int("priority", int64(w.req.Priority)))
	}
	start := time.Now()

	var body []byte
	var err error
	h, ok := s.lookup(w.req.Key)
	if !ok {
		err = &Exception{ID: giop.ExcObjectNotExist, Minor: 1}
	} else {
		body, err = h.Dispatch(w.req)
	}

	elapsed := time.Since(start)
	execH.ObserveEx(float64(elapsed)/float64(time.Millisecond), telemetry.Exemplar{
		TraceID: uint64(w.span.Trace), SpanID: uint64(w.span.Span), At: sim.Wall.At(start) + elapsed,
	})
	o, status := outcomeOK, giop.StatusNoException
	if err != nil {
		e, ok := err.(*Exception)
		if !ok {
			e = &Exception{ID: giop.ExcUnknown, Minor: 1}
		}
		o, status, body = outcomeException, giop.StatusSystemException, giop.EncodeSystemException(e.ID, e.Minor, s.order)
	}
	s.settle(b, w, o, dedup.Reply{Status: status, Body: body})
	return elapsed
}

// Shutdown drains the server gracefully: stop accepting, tell peers to
// close (GIOP CloseConnection), finish queued and executing requests up
// to grace, then close every connection and stop the workers. Requests
// arriving during the drain are refused with TRANSIENT. It is
// idempotent; only the first call does the work.
func (s *Server) Shutdown(grace time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	lis := s.lis
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	for _, c := range conns {
		c.send(&giop.CloseConnection{})
	}

	if grace <= 0 {
		grace = 5 * time.Second
	}
	timer := time.NewTimer(grace)
drain:
	for s.inflight.Load() != 0 {
		select {
		case <-s.drained:
		case <-timer.C:
			s.reg.Counter("wire.server.drain_timeouts").Inc()
			break drain
		}
	}
	timer.Stop()

	s.closed.Store(true)
	s.mu.Lock()
	conns = conns[:0]
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	s.readers.Wait()
	for _, lane := range s.lanes {
		close(lane.ch)
	}
	s.workers.Wait()
}

// queueMsg queues one message, of body length size, on the connection.
// The server's writes carry the writer's default bound: a reply has no
// deadline of its own to give them (see flushDeadline).
func (c *serverConn) queueMsg(m giop.Message, size int) (ticket uint64, wrote bool) {
	order := c.s.order
	return c.queue(size, func(dst []byte) []byte { return m.AppendTo(dst, order) }, time.Time{})
}

// send writes one message the read loop originates (a locate answer, a
// protocol complaint, the drain announcement) at once, behind whatever
// replies are pending on the connection.
func (c *serverConn) send(m giop.Message) {
	ticket, _ := c.queueMsg(m, 0)
	c.flush(ticket, time.Time{})
}

func (c *serverConn) close() {
	c.closeOnce.Do(func() { c.nc.Close() })
}
