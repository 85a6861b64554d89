package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/cdr"
	"repro/internal/events"
	"repro/internal/giop"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// ClientConfig configures a wire Client against one endpoint.
type ClientConfig struct {
	// Addr is the TCP endpoint ("host:port"). Ignored when Dial is set.
	Addr string
	// Bands are ascending CORBA-priority floors; each band keeps its own
	// private connection (RT-CORBA banded connections), so an expedited
	// request never queues behind best-effort bytes on a shared socket.
	// Default: one band at floor 0.
	Bands []int16
	// RequestTimeout is the default RELATIVE_RT_TIMEOUT when a call
	// passes none (default 2s). The timeout is both the client-side wait
	// bound and the absolute deadline propagated in the GIOP deadline
	// service context for server-side shedding.
	RequestTimeout time.Duration
	// DialTimeout bounds connection establishment (default 2s; the chaos
	// soak's group clients shorten it).
	DialTimeout time.Duration
	// Breaker configures per-band circuit breaking; its open-state
	// cooldown (doubling up to the cap, jittered) is also the reconnect
	// backoff after dial failures. Defaults: threshold 4, cooldown
	// 250ms, cap 4s. A test seam: no program sets it; wall-clock tests
	// need a breaker that never trips, or one that recovers in
	// milliseconds.
	Breaker breaker.Config
	// Registry receives wire.client.* telemetry (private one if nil).
	Registry *telemetry.Registry
	// Tracer receives invocation spans (nil = no tracing).
	Tracer *Tracer
	// Bus, when set, receives breaker transition records.
	Bus *events.Bus
	// Name labels telemetry and bus records ("wire.client" default).
	Name string
	// Dial overrides connection establishment — the loopback hook
	// (return one end of a net.Pipe) that makes client tests socket-free
	// and deterministic.
	Dial func() (net.Conn, error)
	// Seed fixes the breaker jitter stream (0 = seed 1).
	Seed int64
}

// requestOrder is the byte order of every frame the client writes:
// canonical big-endian. Replies decode in whatever order the server chose.
const requestOrder = cdr.BigEndian

// Client is the real-socket GIOP client: one private connection per
// priority band, request-ID multiplexing over it, wall-clock deadlines,
// and circuit-breaker-gated reconnection.
type Client struct {
	cfg    ClientConfig
	reg    *telemetry.Registry
	name   string
	brk    *breaker.Machine
	jmu    sync.Mutex
	jrand  *rand.Rand
	reqSeq atomic.Uint32
	bands  []*clientBand
	closed atomic.Bool
	// frames counts the messages queued on a band's connections, flushes
	// the Writes that carried them: wire.client.frames{band} /
	// wire.client.flushes{band}.
	frames, flushes counterVec
}

type clientBand struct {
	c     *Client
	floor int16
	label string
	ep    string // breaker endpoint key: addr#floor
	// poolGauge mirrors "the band has a connection" (0/1) into the
	// registry as wire.client.pool_conns{band}.
	poolGauge *telemetry.Gauge
	// requests is wire.client.requests{band,outcome} by outcome; rtt is
	// wire.client.rtt_ms{band}, resolved by the band's first invocation.
	requests counterVec
	rttOnce  sync.Once
	rtt      *telemetry.Histogram

	// One connection per band, the paper's transport model. A second one
	// splits the burst one Write would have carried: with two, qosperf's
	// mixed_flood lost 9–19 % ops_per_s and its EF lat_p99_us rose
	// 44–65 % in 3/3 alternating pairs (DESIGN §12).
	mu   sync.Mutex
	conn *clientConn // nil when the band has no live connection
	// dialing is the dial in flight, if any: calls that find neither a
	// connection nor a finished dial wait for it and share its outcome.
	dialing *bandDial
}

// bandDial is one connection attempt and, once done is closed, its
// outcome.
type bandDial struct {
	done chan struct{}
	conn *clientConn
	err  error
}

type clientConn struct {
	connWriter
	band *clientBand

	mu      sync.Mutex
	pending map[uint32]*pendingCall
	// retired refuses new registrations (server announced close) while
	// pending replies still stream in; dead means failed, pending
	// flushed.
	retired bool
	dead    bool
	err     error
}

// pendingCall is one two-way call's record from registration to its
// result. Whoever removes it from its connection's pending map — the read
// loop with the reply, fail with the error — fills in the result and then
// signals done, once; nobody else touches it until the caller has that
// signal or has removed the call itself (cancel, take). A settled record
// is recycled when the call's frames were small (recycle).
type pendingCall struct {
	done  chan struct{} // capacity 1: one signal per use
	timer *time.Timer   // the call's deadline; Reset on reuse
	reply giop.Reply    // decoded by value; Body is a view of its frame
	// order is the byte order of the reply frame, captured from its
	// header flags so the exception body decodes exactly.
	order cdr.ByteOrder
	err   error
}

// callPool holds the records of settled small calls.
var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan struct{}, 1)} }}

// newCall returns a record for a call whose request body is small
// (below largeFrame) from callPool, and a fresh one otherwise. The large
// path keeps its per-call allocations on purpose: on echo_large they are
// what makes the invoking goroutine assist the collector and end its
// mark phases (DESIGN §12, "Why the large path still allocates its small
// objects").
func newCall(small bool) *pendingCall {
	if small {
		return callPool.Get().(*pendingCall)
	}
	return &pendingCall{done: make(chan struct{}, 1)}
}

// recycle returns a settled record to callPool when both the request
// body (small) and the reply body were below largeFrame. Its timer is
// stopped, and go 1.23 timers drop a stale tick on Stop and Reset, so the
// next call cannot see this one's deadline.
func (call *pendingCall) recycle(small bool) {
	if !small || len(call.reply.Body) >= largeFrame {
		return
	}
	*call = pendingCall{done: call.done, timer: call.timer}
	callPool.Put(call)
}

// FTRequest identifies one logical fault-tolerant invocation for
// at-most-once duplicate suppression: every transport-level retry of
// the same logical request — against the same endpoint after a
// reconnect, or another group member after failover — carries the
// identical (Group, Client, Retention) triple in the GIOP FT request
// service context (0x13), so a server that already executed it returns
// the cached reply instead of running the servant again.
type FTRequest struct {
	Group, Client uint64
	Retention     uint32
}

// CallOptions shape one invocation.
type CallOptions struct {
	// Priority selects the connection band and propagates end to end in
	// the RT-CORBA priority service context.
	Priority int16
	// Timeout is the RELATIVE_RT_TIMEOUT (0 = ClientConfig default).
	Timeout time.Duration
	// Oneway sends without expecting a reply; Invoke returns as soon as
	// the request bytes are written.
	Oneway bool
	// Idempotent marks the operation safe to re-execute; the failover
	// layer may then retry it even after an ambiguous failure (the
	// connection died after the request bytes were written). Plain
	// clients ignore it.
	Idempotent bool
	// ft, when set, stamps the FT request service context on the wire;
	// GroupClient sets it.
	ft *FTRequest
	// contexts are additional service contexts appended verbatim after
	// the standard QoS contexts — the pub/sub plane uses it to ride the
	// event descriptor (ServiceEventContext) on push invocations.
	contexts []giop.ServiceContext
}

// NewClient builds a client. No connection is dialed until the first
// invocation needs one.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" && cfg.Dial == nil {
		return nil, fmt.Errorf("wire: client needs Addr or Dial")
	}
	if len(cfg.Bands) == 0 {
		cfg.Bands = []int16{0}
	}
	if !sort.SliceIsSorted(cfg.Bands, func(i, j int) bool { return cfg.Bands[i] < cfg.Bands[j] }) {
		return nil, fmt.Errorf("wire: band floors must be ascending")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Breaker.Threshold <= 0 {
		cfg.Breaker.Threshold = 4
	}
	if cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = 250 * time.Millisecond
	}
	if cfg.Breaker.CooldownCap <= 0 {
		cfg.Breaker.CooldownCap = 4 * time.Second
	}
	if cfg.Name == "" {
		cfg.Name = "wire.client"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{
		cfg:   cfg,
		reg:   cfg.Registry,
		name:  cfg.Name,
		jrand: rand.New(rand.NewSource(seed)),
	}
	if c.reg == nil {
		c.reg = telemetry.NewRegistry()
	}
	c.frames = counterVec{reg: c.reg, name: "wire.client.frames", vary: "band"}
	c.flushes = counterVec{reg: c.reg, name: "wire.client.flushes", vary: "band"}
	// The breaker runs on the wall clock; jitter draws are serialised
	// because invocations come from arbitrary goroutines.
	c.brk = breaker.New(cfg.Breaker,
		func() int64 { return time.Now().UnixNano() },
		func(n int64) int64 {
			c.jmu.Lock()
			defer c.jmu.Unlock()
			return c.jrand.Int63n(n)
		})
	for _, floor := range cfg.Bands {
		label := strconv.Itoa(int(floor))
		bandL := telemetry.L("band", label)
		b := &clientBand{
			c:         c,
			floor:     floor,
			label:     label,
			ep:        fmt.Sprintf("%s#%d", cfg.Addr, floor),
			poolGauge: c.reg.Gauge("wire.client.pool_conns", bandL),
			requests: counterVec{reg: c.reg, name: "wire.client.requests",
				fixed: []telemetry.Label{bandL}, vary: "outcome"},
		}
		c.bands = append(c.bands, b)
	}
	return c, nil
}

// Registry returns the client's telemetry registry.
func (c *Client) Registry() *telemetry.Registry { return c.reg }

// BreakerState returns the circuit state of the band serving priority p.
func (c *Client) BreakerState(p int16) breaker.State {
	return c.brk.State(c.bandFor(p).ep)
}

// bandFor returns the highest band whose floor is <= p (the lowest band
// when p is below every floor) — the same rule as server lanes.
func (c *Client) bandFor(p int16) *clientBand {
	b := c.bands[0]
	for _, cand := range c.bands[1:] {
		if p >= cand.floor {
			b = cand
		}
	}
	return b
}

// Invoke performs one synchronous invocation: key/op/body are the GIOP
// request fields; opts pick the band, deadline and sync scope. The
// reply body is returned on NO_EXCEPTION; system exceptions come back
// as classified wire errors (ErrOverload, ErrDeadlineExpired, ...).
func (c *Client) Invoke(key, op string, body []byte, opts CallOptions) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	b := c.bandFor(opts.Priority)
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = c.cfg.RequestTimeout
	}

	var ctx trace.SpanContext
	tr := c.cfg.Tracer
	if tr != nil {
		ctx = tr.StartRoot("wire.invoke",
			trace.String("op", op), trace.String("band", b.label),
			trace.Int("priority", int64(opts.Priority)))
	}
	start := time.Now()
	reply, err := c.invokeOnce(b, ctx, key, op, body, opts, timeout, start)
	rtt := time.Since(start)

	outcome := "ok"
	if err != nil {
		outcome = errClass(err)
	}
	// The one breaker verdict: an open circuit answered locally and a
	// closed client tore itself down, so neither says anything about the
	// endpoint; every other outcome does.
	if outcome != "circuit_open" && outcome != "closed" {
		c.record(b, err != nil && breakerFailure(err))
	}
	if tr != nil {
		tr.Finish(ctx, trace.String("outcome", outcome))
	}
	b.requests.get(outcome).Inc()
	b.rttOnce.Do(func() { b.rtt = c.reg.Histogram("wire.client.rtt_ms", telemetry.L("band", b.label)) })
	b.rtt.ObserveEx(
		float64(rtt)/float64(time.Millisecond),
		telemetry.Exemplar{TraceID: uint64(ctx.Trace), SpanID: uint64(ctx.Span), At: sim.Wall.At(start) + rtt},
	)
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// errClass buckets an invocation error for the outcome label.
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, ErrOverload):
		return "overload"
	case errors.Is(err, ErrDeadlineExpired):
		return "deadline"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	case errors.Is(err, ErrObjectNotExist):
		return "not_exist"
	case errors.Is(err, ErrProtocol):
		return "protocol"
	case errors.Is(err, ErrClientClosed):
		return "closed"
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	default:
		return "error"
	}
}

func (c *Client) invokeOnce(b *clientBand, ctx trace.SpanContext, key, op string, body []byte, opts CallOptions, timeout time.Duration, start time.Time) ([]byte, error) {
	// Gate on the band's circuit first: an open circuit answers locally.
	ok, trans, changed := c.brk.Allow(b.ep)
	if changed {
		c.observeTransition(b, trans)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s (cooldown %v)", ErrCircuitOpen, b.ep, c.brk.Cooldown(b.ep))
	}

	id := c.reqSeq.Add(1)
	expiry := start.Add(timeout)
	// The standard QoS contexts are encoded straight into the message,
	// ahead of opts.contexts; an invalid ctx has zero ids and writes no
	// trace context.
	qos := giop.RequestQoS{
		Priority: opts.Priority, HasPriority: true,
		SentAt: start.UnixNano(), HasSentAt: true,
		Deadline: expiry.UnixNano(),
		TraceID:  uint64(ctx.Trace), SpanID: uint64(ctx.Span),
	}
	if opts.ft != nil {
		qos.FT, qos.HasFT = giop.FTKey{Group: opts.ft.Group, Client: opts.ft.Client, Retention: opts.ft.Retention}, true
	}
	req := giop.Request{
		RequestID:        id,
		ResponseExpected: !opts.Oneway,
		ObjectKey:        []byte(key),
		Operation:        op,
		ServiceContexts:  opts.contexts,
		Body:             body,
	}

	// A call whose request or reply is large keeps its record to itself
	// (newCall, recycle).
	small := len(body) < largeFrame
	var conn *clientConn
	var call *pendingCall
	var others bool
	for attempt := 0; ; attempt++ {
		var err error
		conn, err = b.get()
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %s: %v", ErrDial, c.cfg.Addr, err)
		}
		if opts.Oneway {
			break
		}
		if call == nil {
			call = newCall(small)
		}
		others, err = conn.register(id, call)
		if err == nil {
			break
		}
		// The connection is retired (server draining) or died before
		// the band installed it; with it out of the band one fresh dial
		// gets a live one.
		b.remove(conn)
		if attempt > 0 {
			return nil, err
		}
	}
	// The request is in the kernel, or the connection has failed, when
	// send returns: the write deadline is the call's expiry, so a wedged
	// peer cannot block past it.
	if err := conn.send(len(body), func(dst []byte) []byte { return req.AppendQoS(dst, requestOrder, &qos) }, expiry, others); err != nil {
		if call != nil {
			// fail has taken the call, or is about to: its signal must be
			// in before the record is reused.
			if taken, _ := conn.take(id); !taken {
				<-call.done
			}
			call.recycle(small)
		}
		return nil, fmt.Errorf("%w: write %s: %v", ErrUnavailable, c.cfg.Addr, err)
	}
	if opts.Oneway {
		return nil, nil
	}

	if call.timer == nil {
		call.timer = time.NewTimer(time.Until(expiry))
	} else {
		call.timer.Reset(time.Until(expiry))
	}
	select {
	case <-call.done:
		call.timer.Stop()
	case <-call.timer.C:
		if !conn.cancel(id) {
			// The reply, or the connection's failure, won the race: wait
			// for its signal before the record is reused.
			<-call.done
		}
		call.recycle(small)
		return nil, fmt.Errorf("%w: %v elapsed waiting for %s", ErrDeadlineExpired, timeout, op)
	}

	reply, err := call.result()
	call.recycle(small)
	return reply, err
}

// result is a signalled call's outcome: the reply body, or the error.
func (call *pendingCall) result() ([]byte, error) {
	if call.err != nil {
		return nil, call.err
	}
	switch rep := &call.reply; rep.Status {
	case giop.StatusNoException:
		return rep.Body, nil
	case giop.StatusSystemException:
		return nil, decodeException(rep.Body, call.order)
	default:
		return nil, fmt.Errorf("%w: reply status %v", ErrProtocol, rep.Status)
	}
}

// record books one outcome against the band's circuit and publishes any
// transition.
func (c *Client) record(b *clientBand, failed bool) {
	if trans, changed := c.brk.Record(b.ep, failed); changed {
		c.observeTransition(b, trans)
	}
}

// observeTransition mirrors a breaker state change into telemetry, the
// trace plane and the events bus.
func (c *Client) observeTransition(b *clientBand, trans breaker.Transition) {
	c.reg.Counter("wire.client.breaker_transitions",
		telemetry.L("band", b.label), telemetry.L("to", trans.To.String())).Inc()
	if tr := c.cfg.Tracer; tr != nil {
		ctx := tr.StartRoot("breaker."+trans.To.String(),
			trace.String("endpoint", trans.Endpoint),
			trace.String("from", trans.From.String()))
		tr.Finish(ctx)
	}
	if c.cfg.Bus != nil {
		c.cfg.Bus.PublishAt(sim.Wall.Now(), events.KindBreaker, c.name,
			events.F("endpoint", trans.Endpoint),
			events.F("from", trans.From.String()),
			events.F("to", trans.To.String()),
		)
	}
}

// get returns the band's connection, dialing it if there is none. Calls
// that arrive while a dial is in flight share that dial and its error.
func (b *clientBand) get() (*clientConn, error) {
	if b.c.closed.Load() {
		return nil, ErrClientClosed
	}
	b.mu.Lock()
	if conn := b.conn; conn != nil {
		b.mu.Unlock()
		return conn, nil
	}
	if d := b.dialing; d != nil {
		b.mu.Unlock()
		<-d.done
		return d.conn, d.err
	}
	d := &bandDial{done: make(chan struct{})}
	b.dialing = d
	b.mu.Unlock()

	conn, err := b.dial()
	b.mu.Lock()
	b.dialing = nil
	// Close may have run while the dial was in flight; it found no
	// connection to tear down, so one installed now would never be — its
	// read loop would leak. Fail it here instead.
	leaked := err == nil && b.c.closed.Load()
	if err == nil && !leaked {
		b.conn = conn
		b.poolGauge.Set(1)
	}
	b.mu.Unlock()
	if leaked {
		conn.fail(ErrClientClosed)
		conn, err = nil, ErrClientClosed
	}
	d.conn, d.err = conn, err
	close(d.done)
	return conn, err
}

// dial establishes one connection and starts its reader goroutine.
func (b *clientBand) dial() (*clientConn, error) {
	c := b.c
	c.reg.Counter("wire.client.dials", telemetry.L("band", b.label)).Inc()
	var nc net.Conn
	var err error
	if c.cfg.Dial != nil {
		nc, err = c.cfg.Dial()
	} else {
		nc, err = net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	}
	if err != nil {
		c.reg.Counter("wire.client.dial_errors", telemetry.L("band", b.label)).Inc()
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn := &clientConn{band: b, pending: make(map[uint32]*pendingCall)}
	conn.nc = nc
	conn.failed = func(err error) {
		// Once, however many callers had a frame in the failed batch.
		conn.fail(fmt.Errorf("%w: write: %v", ErrUnavailable, err))
		b.drop(conn)
	}
	go conn.readLoop()
	return conn, nil
}

// remove takes conn out of the band without closing it, unless the band
// has already moved on to a newer connection.
func (b *clientBand) remove(conn *clientConn) {
	b.mu.Lock()
	if b.conn == conn {
		b.conn = nil
		b.poolGauge.Set(0)
	}
	b.mu.Unlock()
}

// drop removes a dead connection from the band and closes it.
func (b *clientBand) drop(conn *clientConn) {
	b.remove(conn)
	conn.nc.Close()
}

// Close tears the client down: every band's connection is closed,
// outstanding calls fail promptly with ErrClientClosed, and every
// connection read loop terminates (a dial racing Close is failed on
// the dialing goroutine's side, so nothing leaks).
func (c *Client) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for _, b := range c.bands {
		b.mu.Lock()
		conn := b.conn
		b.conn = nil
		b.poolGauge.Set(0)
		b.mu.Unlock()
		if conn != nil {
			conn.fail(ErrClientClosed)
		}
	}
}

// register installs a pending call for a request ID and reports whether
// other calls are outstanding on the connection.
func (conn *clientConn) register(id uint32, call *pendingCall) (others bool, err error) {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.dead || conn.retired {
		if conn.err != nil {
			return false, conn.err
		}
		return false, ErrUnavailable
	}
	conn.pending[id] = call
	return len(conn.pending) > 1, nil
}

// take removes a pending call and reports whether it was still there —
// one that is not has been, or is being, signalled by the read loop or
// fail — and whether other calls are outstanding.
func (conn *clientConn) take(id uint32) (taken, others bool) {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	_, taken = conn.pending[id]
	delete(conn.pending, id)
	return taken, len(conn.pending) > 0
}

// cancel abandons a pending call (deadline expiry) and tells the server
// to skip the queued work — best-effort. It reports whether it removed the
// call: when the reply or the connection's failure got there first there
// is nothing left to cancel. With other calls outstanding the
// CancelRequest is only queued, to leave with the connection's next flush:
// a write that times out ends the connection for every call on it, and the
// patience of a caller that has already given up must not be what decides
// that for its neighbours. With none there is nobody else to carry the
// message and nobody to harm, so it is flushed at once, bounded so this
// caller is not held up further.
func (conn *clientConn) cancel(id uint32) bool {
	taken, others := conn.take(id)
	if !taken {
		return false
	}

	b := conn.band
	m := giop.CancelRequest{RequestID: id}
	ticket, _ := conn.queue(0, func(dst []byte) []byte { return m.AppendTo(dst, requestOrder) }, time.Time{})
	b.c.frames.get(b.label).Inc()
	if others {
		return true
	}
	if flushed, _ := conn.flush(ticket, time.Now().Add(50*time.Millisecond)); flushed {
		b.c.flushes.get(b.label).Inc()
	}
	return true
}

// send queues one frame and returns once it is in the kernel, or with
// the error that failed the connection. A caller that knows other calls
// are outstanding on the connection yields the processor once between
// queueing and flushing: replies arrive in batches (the server flushes a
// lane's backlog in one Write), so the callers a batch has just woken are
// all runnable, each about to send its next request; after the yield they
// have queued theirs and one Write carries them all, the rest returning
// from flush at once. Without the yield each woken caller ran its own
// write(2) ahead of everyone behind it in the run queue: on qosperf's
// mixed_flood, server-side holding alone reached 125 k ops_per_s and
// raised the timed EF caller's lat_p50_us from 18 to 23 µs (16 BE callers
// × 4 µs of syscall in front of it); with the yield it is 183 k and
// 16 µs (before the writer: 81 k, 18 µs). A caller alone on its
// connection, a oneway, and a large frame (written by queue already)
// have nobody to wait for and flush at once.
func (conn *clientConn) send(size int, enc func(dst []byte) []byte, deadline time.Time, others bool) error {
	b := conn.band
	ticket, wrote := conn.queue(size, enc, deadline)
	b.c.frames.get(b.label).Inc()
	if others && !wrote {
		runtime.Gosched()
	}
	flushed, err := conn.flush(ticket, deadline)
	if wrote || flushed {
		b.c.flushes.get(b.label).Inc()
	}
	return err
}

// readLoop frames and decodes inbound messages, delivering replies to
// their pending calls by request ID. Each frame is allocated once, at
// its size (hdr saves ReadFrame the header's allocation), and belongs to
// the message decoded from it: the reply body Invoke returns is a view
// of its frame. A Reply in a frame below largeFrame is decoded into rep,
// on this goroutine's stack, and copied into its call's record; a larger
// one keeps its own allocation, which on echo_large is one of the small
// objects that pace the collector (DESIGN §12, "Why the large path still
// allocates its small objects").
func (conn *clientConn) readLoop() {
	c := conn.band.c
	br := bufio.NewReaderSize(conn.nc, 32<<10)
	hdr := make([]byte, giop.HeaderSize)
	var rep giop.Reply
	for {
		frame, err := giop.ReadFrame(br, giop.DefaultMaxMessage, hdr)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("%w: connection closed", ErrUnavailable)
			} else {
				err = fmt.Errorf("%w: read: %v", ErrUnavailable, err)
			}
			conn.fail(err)
			conn.band.drop(conn)
			return
		}
		order := cdr.BigEndian
		if frame[6]&1 == 1 {
			order = cdr.LittleEndian
		}
		var msg giop.Message
		if giop.MsgType(frame[7]) == giop.MsgReply && len(frame) < largeFrame {
			err = giop.DecodeReply(frame, &rep)
		} else {
			msg, err = giop.Decode(frame)
		}
		if err != nil {
			conn.fail(fmt.Errorf("%w: %v", ErrProtocol, err))
			conn.band.drop(conn)
			return
		}
		switch m := msg.(type) {
		case nil: // a small Reply, in rep
			conn.deliver(&rep, order)
		case *giop.Reply:
			conn.deliver(m, order)
		case *giop.CloseConnection:
			// Graceful drain: the server will answer what is already in
			// flight, then close. Retire the connection — no new calls
			// register on it — but keep reading so pending replies land;
			// EOF fails whatever is genuinely left.
			conn.retire()
		case *giop.MessageError:
			conn.fail(fmt.Errorf("%w: peer reported MessageError", ErrProtocol))
			conn.band.drop(conn)
			return
		case *giop.LocateReply:
			// No locate API yet; count and continue.
			c.reg.Counter("wire.client.orphan_replies").Inc()
		default:
			conn.fail(fmt.Errorf("%w: unexpected %v from server", ErrProtocol, msg.Type()))
			conn.band.drop(conn)
			return
		}
	}
}

// deliver hands a reply to its pending call: the one signal the call
// gets, from the party that removed it from pending.
func (conn *clientConn) deliver(rep *giop.Reply, order cdr.ByteOrder) {
	conn.mu.Lock()
	call, ok := conn.pending[rep.RequestID]
	delete(conn.pending, rep.RequestID)
	conn.mu.Unlock()
	if !ok {
		conn.band.c.reg.Counter("wire.client.orphan_replies").Inc()
		return
	}
	call.reply, call.order = *rep, order
	call.done <- struct{}{}
}

// retire marks the connection dead for new registrations and removes it
// from the band while leaving the socket open; the next invocation on
// the band dials afresh.
func (conn *clientConn) retire() {
	conn.mu.Lock()
	if !conn.retired {
		conn.retired = true
		conn.err = fmt.Errorf("%w: server closing", ErrUnavailable)
	}
	conn.mu.Unlock()
	conn.band.remove(conn)
}

// fail marks the connection dead and fails every pending call.
func (conn *clientConn) fail(err error) {
	conn.mu.Lock()
	if conn.dead {
		conn.mu.Unlock()
		return
	}
	conn.dead = true
	conn.err = err
	pending := conn.pending
	conn.pending = make(map[uint32]*pendingCall)
	conn.mu.Unlock()
	conn.nc.Close()
	for _, call := range pending {
		call.err = err
		call.done <- struct{}{}
	}
}
