// Package trace provides deterministic, span-based end-to-end tracing
// for the simulated DRE system: a Tracer mints Spans whose timestamps
// are virtual sim.Time, so a scenario run with a fixed seed produces a
// bit-identical trace every time. Spans carry a name, the middleware
// layer that produced them (orb, rtcorba, netsim, poa, quo, avstreams),
// a parent link, ordered attributes and timestamped events.
//
// One invocation (or one video frame) yields a span tree covering every
// layer it crossed — client marshalling, lane queueing, per-hop network
// transit, servant execution — because the trace context is propagated
// across process boundaries in a GIOP service context (see the giop
// package) exactly as the RT-CORBA priority is. The Breakdown helper
// decomposes a root span's wall time into exclusive per-layer shares
// that sum to the end-to-end latency, answering the paper's central
// measurement question: which layer ate the deadline.
package trace

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/sim"
)

// Layer names used by the instrumented subsystems. Free-form strings are
// allowed; these constants keep the built-in instrumentation consistent.
const (
	LayerORB       = "orb"
	LayerRTCORBA   = "rtcorba"
	LayerNetsim    = "netsim"
	LayerPOA       = "poa"
	LayerQuO       = "quo"
	LayerAVStreams = "avstreams"
	LayerApp       = "app"
	LayerFT        = "ft"
	// LayerOverload tags spans emitted by the overload-protection
	// machinery: deadline sheds, admission refusals, and circuit-breaker
	// transitions.
	LayerOverload = "overload"
	// LayerWire tags spans emitted by the real-socket GIOP plane
	// (internal/wire): client invocations, connection reads, lane
	// queueing and servant dispatch over actual TCP.
	LayerWire = "wire"
	// LayerPubSub tags spans emitted by the publish–subscribe event
	// channel (internal/pubsub): admission decisions and fan-out.
	LayerPubSub = "pubsub"
)

// TraceID identifies one causally-related span tree.
type TraceID uint64

// SpanID identifies one span within a tracer.
type SpanID uint64

// SpanContext is the portable reference to a span: the pair of IDs that
// crosses process boundaries (CDR-encoded in a GIOP service context, or
// carried alongside a video frame).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context refers to a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

func (c SpanContext) String() string {
	return fmt.Sprintf("trace=%d span=%d", c.Trace, c.Span)
}

// Attr is one key/value attribute. Attributes are an ordered slice, not
// a map, so rendering a span is deterministic.
type Attr struct {
	Key string
	Val string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Val: strconv.FormatInt(v, 10)} }

// Dur builds a duration attribute.
func Dur(k string, d sim.Time) Attr { return Attr{Key: k, Val: d.String()} }

// SpanEvent is a timestamped annotation within a span (a packet drop, a
// queue refusal, a contract region transition).
type SpanEvent struct {
	T     sim.Time
	Name  string
	Attrs []Attr
}

// Span is one timed operation in one layer. Spans are created by a
// Tracer and delivered to its sinks when ended.
type Span struct {
	TraceID TraceID
	ID      SpanID
	Parent  SpanID // 0 for a root span
	Name    string
	Layer   string
	Start   sim.Time
	End     sim.Time
	Attrs   []Attr
	Events  []SpanEvent

	tracer *Tracer
	ended  bool
}

// Context returns the span's portable reference.
func (s *Span) Context() SpanContext { return SpanContext{Trace: s.TraceID, Span: s.ID} }

// Duration returns End-Start (zero while the span is open).
func (s *Span) Duration() sim.Time {
	if !s.ended {
		return 0
	}
	return s.End - s.Start
}

// SetAttr appends an attribute.
func (s *Span) SetAttr(attrs ...Attr) *Span {
	s.Attrs = append(s.Attrs, attrs...)
	return s
}

// Event records a timestamped annotation at the current virtual time.
func (s *Span) Event(name string, attrs ...Attr) {
	if s.ended {
		return
	}
	s.Events = append(s.Events, SpanEvent{T: s.tracer.Now(), Name: name, Attrs: attrs})
}

// Finish ends the span at the current virtual time, delivering it to the
// tracer's sinks. Ending twice is a no-op.
func (s *Span) Finish() {
	if s.ended {
		return
	}
	s.ended = true
	s.End = s.tracer.Now()
	delete(s.tracer.open, s.ID)
	for _, sink := range s.tracer.sinks {
		sink.OnEnd(s)
	}
}

// Ended reports whether Finish has run.
func (s *Span) Ended() bool { return s.ended }

// Sink receives spans as they end. The in-memory Collector and the JSONL
// exporter implement it.
type Sink interface {
	OnEnd(s *Span)
}

// Tracer mints spans against a clock: a simulation kernel's virtual
// time, or sim.Wall in a live process. IDs are sequential, so a
// deterministic scenario produces identical traces on every run. The
// zero value is unusable.
//
// A Tracer is not safe for concurrent use — in a simulation all
// interaction happens from the kernel goroutine, like the kernel clock
// it reads. Callers off that model (the wire plane's per-connection
// goroutines) must serialise access with their own mutex; internal/wire
// does exactly that around a tracer on sim.Wall.
type Tracer struct {
	clock     sim.Clock
	col       *Collector
	sinks     []Sink
	nextTrace uint64
	nextSpan  uint64
	open      map[SpanID]*Span
	active    map[any]SpanContext
}

// NewTracer creates a tracer reading time from clock, with an in-memory
// Collector already attached.
func NewTracer(clock sim.Clock) *Tracer {
	tr := &Tracer{
		clock:  clock,
		col:    NewCollector(),
		open:   make(map[SpanID]*Span),
		active: make(map[any]SpanContext),
	}
	tr.sinks = append(tr.sinks, tr.col)
	return tr
}

// Now returns the current clock reading (virtual time in a simulation).
func (tr *Tracer) Now() sim.Time { return tr.clock.Now() }

// Collector returns the tracer's in-memory span store.
func (tr *Tracer) Collector() *Collector { return tr.col }

// AddSink attaches an additional sink (e.g. a JSONL exporter).
func (tr *Tracer) AddSink(s Sink) { tr.sinks = append(tr.sinks, s) }

// StartRoot begins a span that roots a fresh trace.
func (tr *Tracer) StartRoot(name, layer string) *Span {
	tr.nextTrace++
	return tr.start(TraceID(tr.nextTrace), 0, name, layer)
}

// StartChild begins a span under parent. An invalid parent context roots
// a fresh trace instead, so callers need not special-case "no caller
// span yet".
func (tr *Tracer) StartChild(parent SpanContext, name, layer string) *Span {
	if !parent.Valid() {
		return tr.StartRoot(name, layer)
	}
	return tr.start(parent.Trace, parent.Span, name, layer)
}

func (tr *Tracer) start(trace TraceID, parent SpanID, name, layer string) *Span {
	tr.nextSpan++
	s := &Span{
		TraceID: trace,
		ID:      SpanID(tr.nextSpan),
		Parent:  parent,
		Name:    name,
		Layer:   layer,
		Start:   tr.clock.Now(),
		tracer:  tr,
	}
	tr.open[s.ID] = s
	return s
}

// Finish ends the open span referenced by ctx, if any. It is the remote
// side's way of closing a span whose *Span object it never held (e.g. a
// video receiver ending the sender's per-frame span).
func (tr *Tracer) Finish(ctx SpanContext) {
	if s, ok := tr.open[ctx.Span]; ok && s.TraceID == ctx.Trace {
		s.Finish()
	}
}

// OpenSpan returns the still-open span referenced by ctx, or nil.
func (tr *Tracer) OpenSpan(ctx SpanContext) *Span {
	s, ok := tr.open[ctx.Span]
	if !ok || s.TraceID != ctx.Trace {
		return nil
	}
	return s
}

// FlushOpen force-ends every still-open span at the current virtual
// time, tagging each with unfinished=true. Call it at scenario teardown
// so long-lived spans (contract lifetimes, dropped frames) reach the
// sinks. Spans are flushed in ID order for determinism.
func (tr *Tracer) FlushOpen() {
	ids := make([]SpanID, 0, len(tr.open))
	for id := range tr.open {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if s, ok := tr.open[id]; ok {
			s.SetAttr(String("unfinished", "true"))
			s.Finish()
		}
	}
}

// SetActive records ctx as the ambient span for key (conventionally an
// *rtos.Thread). The ORB uses it so a nested invocation made from inside
// a servant chains onto the inbound dispatch span.
func (tr *Tracer) SetActive(key any, ctx SpanContext) { tr.active[key] = ctx }

// Active returns the ambient span context for key (zero if none).
func (tr *Tracer) Active(key any) SpanContext { return tr.active[key] }

// ClearActive removes the ambient span for key.
func (tr *Tracer) ClearActive(key any) { delete(tr.active, key) }
