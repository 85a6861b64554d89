package orb

import (
	"repro/internal/giop"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Portable interceptors: the CORBA meta-programming hook QuO uses to
// weave QoS measurement and adaptation into the invocation path without
// touching application code. Client interceptors see each outgoing
// request before it is marshalled and its reply after it returns; server
// interceptors bracket each servant dispatch.

// ClientRequestInfo describes one outgoing invocation to interceptors.
type ClientRequestInfo struct {
	// Ref is the invocation target.
	Ref *ObjectRef
	// Op is the operation name.
	Op string
	// Priority is the effective CORBA priority (interceptors may raise
	// or lower it before the request is sent).
	Priority rtcorba.Priority
	// Oneway reports fire-and-forget invocations.
	Oneway bool
	// SentAt is the virtual time the request entered the ORB.
	SentAt sim.Time
	// Deadline is the absolute virtual time after which the reply is
	// worthless (zero when the caller set no deadline). It is carried to
	// the server in the ServiceDeadline GIOP context and enforced at
	// every layer of the invocation path.
	Deadline sim.Time
	// Thread is the invoking thread. Interceptors that keep per-caller
	// state (like the tracer's active-span chain) key on it.
	Thread *rtos.Thread
	// TraceCtx is the invocation's trace context, set by the
	// ClientTracer when tracing is enabled (invalid otherwise). The ORB
	// stamps it on the wire message so the network layer can attach
	// per-hop spans.
	TraceCtx trace.SpanContext
	// ExtraContexts lets send interceptors attach service contexts.
	ExtraContexts []giop.ServiceContext
	// Err is the invocation outcome, visible to reply interceptors.
	Err error
	// RTT is the invocation round-trip time, visible to reply
	// interceptors (zero for oneways).
	RTT sim.Time

	span *trace.Span // open invoke span owned by the ClientTracer
}

// ClientInterceptor brackets client invocations.
type ClientInterceptor interface {
	// SendRequest runs before marshalling; it may mutate Priority and
	// append ExtraContexts.
	SendRequest(info *ClientRequestInfo)
	// ReceiveReply runs after the reply (or error) is available.
	ReceiveReply(info *ClientRequestInfo)
}

// ServerRequestInfo describes one inbound dispatch to interceptors.
type ServerRequestInfo struct {
	// Request is the dispatch about to run (or just completed).
	Request *ServerRequest
	// Err is the servant outcome, visible to SendReply.
	Err error
}

// ServerInterceptor brackets servant dispatches.
type ServerInterceptor interface {
	// ReceiveRequest runs on the dispatching pool thread before the
	// servant.
	ReceiveRequest(info *ServerRequestInfo)
	// SendReply runs after the servant returns, before the reply is
	// marshalled.
	SendReply(info *ServerRequestInfo)
}

// AddClientInterceptor registers ci; interceptors run in registration
// order on requests and reverse order on replies.
func (o *ORB) AddClientInterceptor(ci ClientInterceptor) {
	o.clientInterceptors = append(o.clientInterceptors, ci)
}

// AddServerInterceptor registers si with the same ordering rules.
func (o *ORB) AddServerInterceptor(si ServerInterceptor) {
	o.serverInterceptors = append(o.serverInterceptors, si)
}

func (o *ORB) interceptSend(info *ClientRequestInfo) {
	for _, ci := range o.clientInterceptors {
		ci.SendRequest(info)
	}
}

func (o *ORB) interceptReply(info *ClientRequestInfo) {
	for i := len(o.clientInterceptors) - 1; i >= 0; i-- {
		o.clientInterceptors[i].ReceiveReply(info)
	}
}

func (o *ORB) interceptReceive(info *ServerRequestInfo) {
	for _, si := range o.serverInterceptors {
		si.ReceiveRequest(info)
	}
}

func (o *ORB) interceptSendReply(info *ServerRequestInfo) {
	for i := len(o.serverInterceptors) - 1; i >= 0; i-- {
		o.serverInterceptors[i].SendReply(info)
	}
}
