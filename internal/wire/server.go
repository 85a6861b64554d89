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
// as a system exception; any other error becomes CORBA UNKNOWN.
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
	// Body is a view of the request's frame, which the request owns: a
	// handler may keep it (or return it as the reply) for as long as it
	// likes, but must not write to it — see the package comment.
	Body []byte
	// Priority is the propagated RT-CORBA CORBA priority (0 if absent).
	Priority int16
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
	// Oneway reports that no reply is expected.
	Oneway bool
	// Contexts holds the request's raw GIOP service contexts, so
	// servants can read application-level ones (the pub/sub event
	// descriptor) beyond the standard QoS set parsed above.
	Contexts []giop.ServiceContext

	// ft is the at-most-once dedup key from the FT request context,
	// valid when hasFT is set (two-way requests only).
	ft    giop.FTKey
	hasFT bool
}

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
	// MaxMessage caps inbound GIOP bodies (giop.DefaultMaxMessage if 0).
	MaxMessage uint32
	// ByteOrder for replies (the zero value is canonical big-endian).
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

// ftCacheCap bounds the at-most-once reply cache (internal/dedup).
// Requests carrying the GIOP FT request context (0x13) are deduplicated
// on their key: a replay of an executed request — a failover retry,
// possibly over a fresh connection after a reconnect — gets the cached
// reply bytes back instead of re-invoking the servant, and a replay
// racing the original execution waits for its outcome instead of
// running twice.
const ftCacheCap = 8192

type laneWork struct {
	conn     *serverConn
	req      *Request
	id       uint32
	enqueued time.Time
}

type serverLane struct {
	cfg LaneConfig
	ch  chan laneWork
	// label is the priority floor as a telemetry label value.
	label string
	// dispatched is wire.server.dispatched{lane,outcome} by outcome.
	dispatched counterVec
	// Lifetime outcome counts, readable lock-free by Snapshot for the
	// /debug/qos introspection endpoint.
	served  atomic.Int64
	refused atomic.Int64
	shed    atomic.Int64
}

// Server is the real-socket GIOP server: an accept loop feeding
// goroutine-per-connection readers, which parse frames and enqueue
// requests onto per-priority lanes drained by a bounded worker pool.
type Server struct {
	cfg    ServerConfig
	reg    *telemetry.Registry
	order  cdr.ByteOrder
	maxMsg uint32
	name   string

	mu       sync.Mutex
	servants map[string]Handler
	conns    map[*serverConn]struct{}

	// requests is wire.server.requests{lane} by lane.
	requests counterVec

	ftCache *dedup.Cache[ftWaiter]

	lanes    []*serverLane
	workers  sync.WaitGroup
	readers  sync.WaitGroup
	inflight sync.WaitGroup // accepted (queued or executing) requests

	lis      net.Listener
	draining atomic.Bool
	closed   atomic.Bool
}

// ftWaiter is a replayed request that arrived while the original was
// still executing; it is answered when the execution settles.
type ftWaiter struct {
	conn *serverConn
	id   uint32
}

type serverConn struct {
	s    *Server
	nc   net.Conn
	wmu  sync.Mutex
	peer string
	// cancelled holds request IDs a CancelRequest asked to abandon;
	// checked at dequeue (best-effort, like the CORBA semantics).
	cancelled sync.Map
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
		cfg:      cfg,
		reg:      cfg.Registry,
		order:    cfg.ByteOrder,
		maxMsg:   cfg.MaxMessage,
		name:     cfg.Name,
		servants: make(map[string]Handler),
		conns:    make(map[*serverConn]struct{}),
		ftCache:  dedup.New[ftWaiter](ftCacheCap),
	}
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	if s.maxMsg == 0 {
		s.maxMsg = giop.DefaultMaxMessage
	}
	if s.name == "" {
		s.name = "wire.server"
	}
	s.requests = counterVec{reg: s.reg, name: "wire.server.requests", vary: "lane"}
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
		lane.dispatched = counterVec{reg: s.reg, name: "wire.server.dispatched",
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
	s.servants[key] = h
	s.mu.Unlock()
}

// lookup resolves the servant for key (exact, then "" fallback).
func (s *Server) lookup(key string) (Handler, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.servants[key]; ok {
		return h, true
	}
	h, ok := s.servants[""]
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
	c := &serverConn{s: s, nc: nc, peer: nc.RemoteAddr().String()}
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

	// Each frame is allocated once, at its size (hdr saves ReadFrame the
	// header's allocation), and belongs to the message decoded from it:
	// the Request a Handler sees aliases its frame.
	br := bufio.NewReaderSize(nc, 32<<10)
	hdr := make([]byte, giop.HeaderSize)
	for {
		frame, err := giop.ReadFrame(br, s.maxMsg, hdr)
		if err != nil {
			if err != io.EOF && !s.closed.Load() {
				s.reg.Counter("wire.server.read_errors").Inc()
				c.write(&giop.MessageError{})
			}
			return
		}
		msg, err := giop.Decode(frame)
		if err != nil {
			s.reg.Counter("wire.server.protocol_errors").Inc()
			c.write(&giop.MessageError{})
			return
		}
		switch m := msg.(type) {
		case *giop.Request:
			s.handleRequest(c, m)
		case *giop.CancelRequest:
			c.cancelled.Store(m.RequestID, struct{}{})
			s.reg.Counter("wire.server.cancels").Inc()
		case *giop.LocateRequest:
			_, ok := s.lookup(string(m.ObjectKey))
			status := giop.LocateObjectHere
			if !ok {
				status = giop.LocateUnknownObject
			}
			c.write(&giop.LocateReply{RequestID: m.RequestID, Status: status})
		case *giop.CloseConnection:
			return
		case *giop.MessageError:
			s.reg.Counter("wire.server.protocol_errors").Inc()
			return
		default:
			// A Reply or LocateReply arriving at a server is a protocol
			// violation from this side of the connection.
			s.reg.Counter("wire.server.protocol_errors").Inc()
			c.write(&giop.MessageError{})
			return
		}
	}
}

// handleRequest parses the request's QoS contexts and enqueues it on
// its priority lane, refusing with TRANSIENT minor 2 when the lane
// queue is full or the server is draining.
func (s *Server) handleRequest(c *serverConn, m *giop.Request) {
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

	lane := s.laneFor(req.Priority)
	s.requests.get(lane.label).Inc()
	if req.hasFT {
		// A duplicate of an executed (or executing) invocation is answered
		// from the cache or parked — the servant never runs a second time.
		switch verdict, cached := s.ftCache.Admit(req.ft, ftWaiter{conn: c, id: m.RequestID}); verdict {
		case dedup.Replay:
			s.reg.Counter("wire.server.ft_replays").Inc()
			c.write(&giop.Reply{RequestID: m.RequestID, Status: cached.Status, Body: cached.Body})
			return
		case dedup.Parked:
			s.reg.Counter("wire.server.ft_waiters").Inc()
			return
		}
	}
	if s.draining.Load() {
		s.refuse(c, req, m.RequestID, lane, "draining")
		return
	}
	s.inflight.Add(1)
	select {
	case lane.ch <- laneWork{conn: c, req: req, id: m.RequestID, enqueued: time.Now()}:
	default:
		s.inflight.Done()
		s.refuse(c, req, m.RequestID, lane, "queue_full")
	}
}

// Whether a settled request reached its servant.
const executed, refused = true, false

// settle answers a two-way request and any replays parked on it. An
// executed outcome is cached for later replays; a refused one (refusal,
// shed) never reached the servant and is forgotten, so a retry may still
// execute.
func (s *Server) settle(c *serverConn, req *Request, id uint32, ran bool, status giop.ReplyStatus, body []byte) {
	if req.Oneway {
		return
	}
	if req.hasFT {
		var parked []ftWaiter
		if ran {
			parked = s.ftCache.Complete(req.ft, dedup.Reply{Status: status, Body: body})
		} else {
			parked = s.ftCache.Abort(req.ft)
		}
		for _, w := range parked {
			w.conn.write(&giop.Reply{RequestID: w.id, Status: status, Body: body})
		}
	}
	c.write(&giop.Reply{RequestID: id, Status: status, Body: body})
}

// refuse sheds an arriving request with TRANSIENT minor 2 — the same
// bytes the simulated ORB's lanes emit for an admission refusal.
func (s *Server) refuse(c *serverConn, req *Request, id uint32, lane *serverLane, why string) {
	lane.refused.Add(1)
	s.reg.Counter("wire.server.refused", telemetry.L("lane", lane.label), telemetry.L("reason", why)).Inc()
	s.publishShed(req, lane, why)
	s.settle(c, req, id, refused, giop.StatusSystemException,
		giop.EncodeSystemException(giop.ExcTransient, giop.MinorShed, s.order))
}

// shed drops an already-queued request whose deadline expired before a
// worker reached it, answering TIMEOUT — the wire counterpart of the
// simulated lanes' deadline shedding.
func (s *Server) shed(w laneWork, lane *serverLane) {
	lane.shed.Add(1)
	s.reg.Counter("wire.server.deadline_shed", telemetry.L("lane", lane.label)).Inc()
	s.publishShed(w.req, lane, "deadline")
	if tr := s.cfg.Tracer; tr != nil {
		ctx := tr.StartChild(w.req.TraceCtx, "wire.shed",
			trace.String("op", w.req.Operation), trace.String("reason", "deadline"))
		tr.Finish(ctx)
	}
	s.settle(w.conn, w.req, w.id, refused, giop.StatusSystemException,
		giop.EncodeSystemException(giop.ExcTimeout, 1, s.order))
}

func (s *Server) publishShed(req *Request, lane *serverLane, why string) {
	if s.cfg.Bus == nil {
		return
	}
	s.cfg.Bus.PublishAt(sim.Wall.Now(), events.KindShed, s.name,
		events.F("lane", lane.label),
		events.F("op", req.Operation),
		events.F("reason", why),
	)
}

// worker drains one lane until its channel closes at shutdown.
func (s *Server) worker(lane *serverLane) {
	defer s.workers.Done()
	laneL := telemetry.L("lane", lane.label)
	queueH := s.reg.Histogram("wire.server.queue_ms", laneL)
	execH := s.reg.Histogram("wire.server.exec_ms", laneL)
	for w := range lane.ch {
		now := time.Now()
		queueH.Observe(float64(now.Sub(w.enqueued)) / float64(time.Millisecond))
		if _, cancelled := w.conn.cancelled.LoadAndDelete(w.id); cancelled {
			// A replay parked on this request still wants the outcome:
			// then execute anyway.
			if !w.req.hasFT || s.ftCache.Cancel(w.req.ft) {
				s.reg.Counter("wire.server.cancelled", laneL).Inc()
				s.inflight.Done()
				continue
			}
		}
		if !w.req.Deadline.IsZero() && now.After(w.req.Deadline) {
			s.shed(w, lane)
			s.inflight.Done()
			continue
		}
		s.dispatch(w, lane, execH)
		s.inflight.Done()
	}
}

// dispatch runs the servant and writes the reply.
func (s *Server) dispatch(w laneWork, lane *serverLane, execH *telemetry.Histogram) {
	var ctx trace.SpanContext
	tr := s.cfg.Tracer
	if tr != nil {
		ctx = tr.StartChild(w.req.TraceCtx, "wire.dispatch",
			trace.String("op", w.req.Operation),
			trace.String("lane", lane.label),
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
		TraceID: uint64(ctx.Trace), SpanID: uint64(ctx.Span), At: sim.Wall.At(start) + elapsed,
	})
	outcome := "ok"
	if err != nil {
		outcome = "exception"
	}
	if tr != nil {
		tr.Finish(ctx, trace.String("outcome", outcome))
	}
	lane.served.Add(1)
	lane.dispatched.get(outcome).Inc()

	// The servant ran (or the key resolution failed deterministically):
	// replays get these exact bytes.
	status := giop.StatusNoException
	switch e := err.(type) {
	case nil:
	case *Exception:
		status, body = giop.StatusSystemException, giop.EncodeSystemException(e.ID, e.Minor, s.order)
	default:
		status, body = giop.StatusSystemException, giop.EncodeSystemException(giop.ExcUnknown, 1, s.order)
	}
	s.settle(w.conn, w.req, w.id, executed, status, body)
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
		c.write(&giop.CloseConnection{})
	}

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	if grace <= 0 {
		grace = 5 * time.Second
	}
	timer := time.NewTimer(grace)
	select {
	case <-done:
		timer.Stop()
	case <-timer.C:
		s.reg.Counter("wire.server.drain_timeouts").Inc()
	}

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

// write encodes one message into a pooled buffer outside the write lock
// and sends it, serialised per connection.
func (c *serverConn) write(m giop.Message) {
	bufp := getWriteBuf()
	*bufp = m.AppendTo((*bufp)[:0], c.s.order)
	c.wmu.Lock()
	_, err := c.nc.Write(*bufp)
	c.wmu.Unlock()
	putWriteBuf(bufp)
	if err != nil {
		c.s.reg.Counter("wire.server.write_errors").Inc()
		c.close()
	}
}

func (c *serverConn) close() {
	c.closeOnce.Do(func() { c.nc.Close() })
}
