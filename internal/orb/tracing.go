package orb

import (
	"strconv"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// Invocation tracing: the ORB records a span tree for every request it
// carries. The client side roots an "invoke" span (or chains onto the
// calling thread's active span, so nested invocations made from inside
// a servant join the same trace), injects the trace context into a GIOP
// service context, and brackets marshalling; the server side extracts
// the context, records the lane queueing delay (rtcorba layer), the
// servant execution (poa layer) and reply marshalling; the network
// layer adds per-hop transit spans. Together the spans decompose the
// end-to-end latency layer by layer — the measurement substrate the
// paper's Figures 4-7 and the QuO contracts both need.

// EnableTracing installs tr as the ORB's tracer and registers the
// ClientTracer/ServerTracer interceptor pair. Existing and future POA
// thread pools record lane-queue spans against the same tracer. The
// network is not touched: call Network.SetTracer separately to get
// per-hop spans (qostrace does both).
func (o *ORB) EnableTracing(tr *trace.Tracer) {
	o.tracer = tr
	for _, p := range o.poas {
		p.pool.SetTracer(tr)
	}
	o.AddClientInterceptor(&ClientTracer{Tracer: tr, ORB: o})
	o.AddServerInterceptor(&ServerTracer{Tracer: tr})
}

// ClientTracer is the ready-made client interceptor that roots the
// invocation span and injects the trace context service context into
// every outgoing request.
type ClientTracer struct {
	Tracer *trace.Tracer
	// ORB, when set, supplies the GIOP byte order for the injected
	// service context; nil falls back to canonical big-endian (the
	// context encodes its own order octet, so either decodes).
	ORB *ORB
}

var _ ClientInterceptor = (*ClientTracer)(nil)

// SendRequest implements ClientInterceptor: it starts the invoke span
// (chained onto the calling thread's active span, if any) and attaches
// the ServiceTraceContext entry.
func (ct *ClientTracer) SendRequest(info *ClientRequestInfo) {
	parent := ct.Tracer.Active(info.Thread)
	span := ct.Tracer.StartChild(parent, "invoke "+info.Op, trace.LayerORB)
	span.SetAttr(
		trace.String("target", info.Ref.Addr.String()),
		trace.Int("priority", int64(info.Priority)),
	)
	if info.Oneway {
		span.SetAttr(trace.String("oneway", "true"))
	}
	info.span = span
	info.TraceCtx = span.Context()
	order := cdr.BigEndian
	if ct.ORB != nil {
		order = ct.ORB.cfg.ByteOrder
	}
	info.ExtraContexts = append(info.ExtraContexts,
		giop.TraceContext(uint64(span.Context().Trace), uint64(span.Context().Span), order))
}

// ReceiveReply implements ClientInterceptor: it ends the invoke span
// with the outcome.
func (ct *ClientTracer) ReceiveReply(info *ClientRequestInfo) {
	if info.span == nil {
		return
	}
	if info.Err != nil {
		info.span.SetAttr(trace.String("error", info.Err.Error()))
	}
	info.span.Finish()
	info.span = nil
}

// ServerTracer is the ready-made server interceptor that extracts the
// propagated trace context and brackets servant execution in a
// "dispatch" span on the poa layer.
type ServerTracer struct {
	Tracer *trace.Tracer
}

var _ ServerInterceptor = (*ServerTracer)(nil)

// ReceiveRequest implements ServerInterceptor.
func (st *ServerTracer) ReceiveRequest(info *ServerRequestInfo) {
	req := info.Request
	if !req.TraceCtx.Valid() {
		return
	}
	span := st.Tracer.StartChild(req.TraceCtx, "dispatch "+req.Op, trace.LayerPOA)
	span.SetAttr(
		trace.Int("priority", int64(req.Priority)),
		trace.String("thread", req.Thread.Name()),
	)
	req.dspan = span
	// Nested invocations made by the servant chain onto the dispatch.
	st.Tracer.SetActive(req.Thread, span.Context())
}

// SendReply implements ServerInterceptor.
func (st *ServerTracer) SendReply(info *ServerRequestInfo) {
	req := info.Request
	if req.dspan == nil {
		return
	}
	if info.Err != nil {
		req.dspan.SetAttr(trace.String("error", info.Err.Error()))
	}
	req.dspan.Finish()
	req.dspan = nil
	st.Tracer.ClearActive(req.Thread)
}

// TelemetryProbe is a client interceptor populating RED metrics —
// request rate, errors, duration — in a telemetry registry, labeled by
// operation and CORBA priority.
type TelemetryProbe struct {
	Reg *telemetry.Registry
}

var _ ClientInterceptor = (*TelemetryProbe)(nil)

func prioLabel(p int) telemetry.Label {
	return telemetry.L("prio", strconv.Itoa(p))
}

// SendRequest implements ClientInterceptor.
func (tp *TelemetryProbe) SendRequest(info *ClientRequestInfo) {
	tp.Reg.Counter("orb.requests", telemetry.L("op", info.Op), prioLabel(int(info.Priority))).Inc()
}

// ReceiveReply implements ClientInterceptor.
func (tp *TelemetryProbe) ReceiveReply(info *ClientRequestInfo) {
	if info.Err != nil {
		tp.Reg.Counter("orb.errors", telemetry.L("op", info.Op), prioLabel(int(info.Priority))).Inc()
		return
	}
	if !info.Oneway {
		h := tp.Reg.Histogram("orb.rtt_ms", telemetry.L("op", info.Op), prioLabel(int(info.Priority)))
		v := info.RTT.Seconds() * 1e3
		if info.TraceCtx.Valid() {
			// When tracing is on, stamp the observation with the invocation's
			// span context so monitor exposition can emit exemplars linking
			// bad latency quantiles to the trace that caused them.
			h.ObserveEx(v, telemetry.Exemplar{
				TraceID: uint64(info.TraceCtx.Trace),
				SpanID:  uint64(info.TraceCtx.Span),
				At:      time.Duration(info.SentAt + info.RTT),
			})
			return
		}
		h.Observe(v)
	}
}
