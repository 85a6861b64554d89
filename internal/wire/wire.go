// Package wire is the real-socket GIOP messaging plane: the same GIOP
// 1.2 bytes the simulated ORB speaks (internal/giop — including the
// RT-CORBA priority context 0x10, trace context 0x12, FT context 0x13
// and end-to-end deadline context 0x14), carried over actual OS TCP
// sockets under the wall clock instead of the simulated network under
// virtual time. Because both planes share the giop codec verbatim, a
// frame captured from either side decodes identically on the other —
// the interop regression tests pin that guarantee.
//
// The plane comprises a Server (accept loop, goroutine-per-connection
// readers, a bounded worker pool with per-priority lanes mirroring
// rtcorba.ThreadPool semantics, graceful drain) and a Client (RT-CORBA
// private-connection banding — exactly one connection per priority
// band, so expedited requests never queue behind best-effort bytes —
// request-ID multiplexing, wall-clock RELATIVE_RT_TIMEOUT deadlines,
// and reconnect gating through the circuit-breaker state machine shared
// with the simulated ORB via internal/breaker). Everything is
// observable: spans with layer "wire" on a wall-clock tracer, telemetry
// counters/histograms (with trace exemplars) a live /metrics endpoint
// can scrape, and optional records on the unified events bus.
//
// Buffer ownership. A payload byte is moved once in each direction.
// Inbound, a connection's read loop reads every frame once into memory of
// its own and giop parses it in place — a Request or a Reply into a value
// on the read loop's stack (DecodeRequest, DecodeReply), anything else
// with Decode: the decoded message aliases the frame. A frame below largeFrame is allocated at its exact size and
// is garbage-collected with its message. The frame of a larger request is
// borrowed from the write pool and goes back once the request is settled.
// So req.Body and req.Contexts[i].Data are valid until Dispatch returns —
// returning req.Body as the reply is legal and copy-free, the reply is
// encoded before the frame is released — and a Handler that keeps either
// past its return (caches it, queues it in an outbox) calls req.Retain
// first, which leaves the frame to the collector. None may write to them:
// the FT reply cache and other retainers may hold the same bytes. (The
// server never recycles the frame of a request with an FT context, whose
// reply the cache keeps.) The reply body Client.Invoke returns is a view of
// the reply's frame, which is never recycled: it is the caller's to keep.
// Outbound, a message is encoded (giop AppendTo) once, straight into its
// connection's pending batch, and a flush hands the whole batch to the
// kernel in one Write (connWriter): a lane worker queues its replies and
// flushes when its lane runs dry (and never holds one for longer than
// maxHeldTime), concurrent callers on one client connection share a write.
// A frame with a large body is instead encoded outside every lock into a
// buffer from writeBufs and written on its own. Either way nothing refers
// to the body once it is encoded, so the body a caller passed to Invoke, or
// a Handler returned, is the caller's again the moment the call completes.
//
// Unit tests run socket-free and deterministic over net.Pipe loopback
// connections (Server.ServeConn plus ClientConfig.Dial); qosbench -run
// obs, cmd/qosserve + cmd/qoscall and bench/qosperf exercise real TCP.
package wire

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// EFPriority is the expedited CORBA priority the wall-clock programs
// use for the high band; best effort rides at 0.
const EFPriority int16 = 16000

// Errors returned by wire invocations. They mirror the simulated ORB's
// classification so the shared breaker semantics line up: overload and
// deadline outcomes trip circuits on both planes, and on sockets so do
// unavailable and protocol outcomes, each of which ends the connection
// under the call (breakerFailure). Application exceptions, unknown
// objects and TRANSIENT do not; an open circuit and a closed client
// record nothing.
var (
	// ErrDeadlineExpired means the invocation's wall-clock
	// RELATIVE_RT_TIMEOUT passed before a useful reply arrived — at the
	// client while waiting, or at the server (shed from a lane queue).
	ErrDeadlineExpired = errors.New("wire: deadline expired")
	// ErrOverload means the server deliberately shed the request (lane
	// queue full) — the peer is alive and protecting itself.
	ErrOverload = errors.New("wire: server overloaded (request shed)")
	// ErrTransient is the legacy minor-1 lane-full refusal.
	ErrTransient = errors.New("wire: TRANSIENT")
	// ErrObjectNotExist means the object key resolved to no servant.
	ErrObjectNotExist = errors.New("wire: OBJECT_NOT_EXIST")
	// ErrUnavailable means the endpoint could not be reached or the
	// connection died mid-call: dial failure, write failure, or a
	// connection-level close with calls in flight.
	ErrUnavailable = errors.New("wire: endpoint unavailable")
	// ErrCircuitOpen means the endpoint's circuit is open: recent
	// classified failures were answered by refusing traffic locally
	// instead of burning a connect or request timeout against it.
	ErrCircuitOpen = errors.New("wire: endpoint circuit open")
	// ErrProtocol means the peer sent bytes that do not parse as GIOP,
	// or answered with MessageError.
	ErrProtocol = errors.New("wire: GIOP protocol error")
	// ErrShutdown means the client or server was already shut down.
	ErrShutdown = errors.New("wire: shut down")
	// ErrClientClosed means Client.Close ran: calls in flight at that
	// instant fail with it, and later invocations are refused with it.
	// It wraps ErrShutdown, so errors.Is(err, ErrShutdown) still holds,
	// but callers (the failover layer in particular) can tell a local
	// deliberate teardown from an endpoint failure.
	ErrClientClosed = fmt.Errorf("%w: client closed", ErrShutdown)
	// ErrDial means connection establishment itself failed. It wraps
	// ErrUnavailable; the distinction matters for at-most-once safety:
	// a dial failure proves no request bytes ever reached the endpoint,
	// so even a non-idempotent call may be retried elsewhere, while a
	// bare ErrUnavailable (connection died mid-call) is ambiguous.
	ErrDial = fmt.Errorf("%w: dial failed", ErrUnavailable)
)

// Exception is a CORBA system exception a servant returns explicitly.
type Exception = giop.SystemException

// decodeException maps a SYSTEM_EXCEPTION reply body onto the wire error
// sentinels; exceptions without QoS meaning pass through.
func decodeException(body []byte, order cdr.ByteOrder) error {
	se := giop.DecodeSystemException(body, order)
	switch se.Class() {
	case giop.ClassNotExist:
		return fmt.Errorf("%w (minor %d)", ErrObjectNotExist, se.Minor)
	case giop.ClassOverload:
		return fmt.Errorf("%w (minor %d)", ErrOverload, se.Minor)
	case giop.ClassTransient:
		return fmt.Errorf("%w (minor %d)", ErrTransient, se.Minor)
	case giop.ClassDeadline:
		return fmt.Errorf("%w (server, minor %d)", ErrDeadlineExpired, se.Minor)
	default:
		return se
	}
}

// breakerFailure reports whether err counts against an endpoint's
// circuit — the same classification the simulated ORB applies, plus the
// connection-level outcomes that only exist on real sockets: a dead
// connection (ErrUnavailable) and a peer that broke the protocol
// (ErrProtocol), which kills the connection too. Client.Invoke is its one
// caller.
func breakerFailure(err error) bool {
	return errors.Is(err, ErrOverload) ||
		errors.Is(err, ErrDeadlineExpired) ||
		errors.Is(err, ErrUnavailable) ||
		errors.Is(err, ErrProtocol)
}

// writeBufs recycles the buffers of large frames across connections, in
// both directions. Outbound (connWriter.queue) a buffer is held from encode
// to the end of the Write that sends it, by one goroutine; giop AppendTo
// grows it to the message's size when it is too small, and it returns to
// the pool grown, so steady-state writes allocate nothing. Inbound
// (getFrameBuf) the server borrows one for the frame of a large request,
// from the read until the request is settled.
var writeBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// maxPooledWrite is the largest buffer the pool, or a connWriter between
// flushes, keeps. One message near giop.DefaultMaxMessage would otherwise
// pin its megabytes for as long as the pool entry circulates or the
// connection lives; above this size a buffer is left to the collector and
// the next large message allocates its own.
const maxPooledWrite = 1 << 20

func getWriteBuf() *[]byte { return writeBufs.Get().(*[]byte) }

func putWriteBuf(b *[]byte) {
	if cap(*b) <= maxPooledWrite {
		writeBufs.Put(b)
	}
}

// getFrameBuf returns a pooled buffer with room for a frame of n bytes. One
// too small is replaced by a new one, its capacity rounded up to the 8 KiB
// span size the allocation costs anyway, so frames of about one size settle
// on buffers that fit them all.
func getFrameBuf(n int) *[]byte {
	b := getWriteBuf()
	if cap(*b) < n {
		*b = make([]byte, 0, (n+8191)&^8191)
	}
	return b
}

// releaseHook, when a test sets it, sees every borrowed frame as it goes
// back to the pool (and poisons it, so a use after release shows).
var releaseHook func(frame []byte)

// putFrameBuf ends the borrow getFrameBuf began.
func putFrameBuf(b *[]byte) {
	if releaseHook != nil {
		releaseHook((*b)[:cap(*b)])
	}
	putWriteBuf(b)
}

// counterVec caches the counters of one metric whose series differ in
// one label's value (the outcome of a call, the lane of a request), so
// the hot path pays a map read instead of rebuilding the registry key
// per call. A counter is resolved from the registry at its first use,
// not ahead of it, so a series still first appears on /metrics with its
// first increment.
type counterVec struct {
	reg   *telemetry.Registry
	name  string
	fixed []telemetry.Label // carried by every series
	vary  string            // key of the label that picks the series

	mu sync.RWMutex
	m  map[string]*telemetry.Counter
}

func (v *counterVec) get(value string) *telemetry.Counter {
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	labels := append(append([]telemetry.Label(nil), v.fixed...), telemetry.L(v.vary, value))
	c = v.reg.Counter(v.name, labels...)
	v.mu.Lock()
	if v.m == nil {
		v.m = make(map[string]*telemetry.Counter)
	}
	v.m[value] = c
	v.mu.Unlock()
	return c
}

// count reads a series without creating it (live introspection).
func (v *counterVec) count(value string) int64 {
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c == nil {
		return 0
	}
	return int64(c.Value())
}

// Tracer is the wire plane's span source: a trace.Tracer on the process
// clock (sim.Wall), guarded by a mutex so the plane's real goroutines —
// connection readers, lane workers, caller threads — can share it. The
// underlying tracer type is the simulation one, so collected spans
// render, decompose and export through the exact same machinery
// (RenderTree, CriticalPath, JSONL).
//
// Spans are only ever handed out as SpanContexts; every mutation goes
// through these methods, which is what makes the lock discipline
// airtight (satisfying the audit of trace sinks reached from wire
// goroutines — the raw Tracer documents itself as single-goroutine).
type Tracer struct {
	mu sync.Mutex
	tr *trace.Tracer
}

// NewTracer creates a tracer on sim.Wall with an attached collector. Its
// spans share a time base with everything else the process stamps from
// that clock: bus records, sampler windows, exemplars.
func NewTracer() *Tracer {
	return &Tracer{tr: trace.NewTracer(sim.Wall)}
}

// StartRoot begins a root span and returns its portable context.
func (t *Tracer) StartRoot(name string, attrs ...trace.Attr) trace.SpanContext {
	return t.StartRootLayer(trace.LayerWire, name, attrs...)
}

// StartRootLayer begins a root span in an explicit layer — the chaos
// proxy uses it for layer "chaos" fault-window spans that line up with
// the wire plane's failover spans on the same wall clock.
func (t *Tracer) StartRootLayer(layer, name string, attrs ...trace.Attr) trace.SpanContext {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.tr.StartRoot(name, layer)
	s.SetAttr(attrs...)
	return s.Context()
}

// StartChild begins a child span under parent (a fresh root when parent
// is invalid) and returns its context.
func (t *Tracer) StartChild(parent trace.SpanContext, name string, attrs ...trace.Attr) trace.SpanContext {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.tr.StartChild(parent, name, trace.LayerWire)
	s.SetAttr(attrs...)
	return s.Context()
}

// StartChildLayer begins a child span under parent in an explicit
// layer — the pub/sub channel uses it for layer "pubsub" fan-out spans
// hanging off the wire invocation that delivered the publish.
func (t *Tracer) StartChildLayer(parent trace.SpanContext, layer, name string, attrs ...trace.Attr) trace.SpanContext {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.tr.StartChild(parent, name, layer)
	s.SetAttr(attrs...)
	return s.Context()
}

// Event records a timestamped annotation on the open span ctx.
func (t *Tracer) Event(ctx trace.SpanContext, name string, attrs ...trace.Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.tr.OpenSpan(ctx); s != nil {
		s.Event(name, attrs...)
	}
}

// Finish ends the open span ctx, first appending attrs.
func (t *Tracer) Finish(ctx trace.SpanContext, attrs ...trace.Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.tr.OpenSpan(ctx); s != nil {
		s.SetAttr(attrs...)
		s.Finish()
	}
}

// Collector returns the underlying span store. Only read it after the
// goroutines feeding this tracer have stopped (servers shut down,
// clients closed); the collector itself is not locked.
func (t *Tracer) Collector() *trace.Collector {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr.Collector()
}

// Len returns the number of collected (ended) spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr.Collector().Len()
}
