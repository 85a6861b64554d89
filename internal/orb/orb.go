// Package orb implements a CORBA-style Object Request Broker over the
// simulated network: real GIOP 1.2 messages (built with the cdr and giop
// packages) carried on reliable transport connections, a POA object
// adapter with constant-time request demultiplexing, RT-CORBA priority
// propagation via service contexts, priority-banded connections, and the
// paper's TAO extension mapping CORBA priorities to DiffServ codepoints
// on the wire.
//
// Protocol processing consumes simulated CPU on the hosts involved
// (marshalling, demultiplexing, dispatching), so end-to-end invocation
// latency reflects both network and endsystem contention — the property
// the paper's experiments measure.
package orb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/cdr"
	"repro/internal/dedup"
	"repro/internal/events"
	"repro/internal/giop"
	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Errors returned by invocations.
var (
	// ErrTimeout means the reply did not arrive within the deadline.
	ErrTimeout = errors.New("orb: invocation timed out")
	// ErrObjectNotExist means the object key resolved to no servant.
	ErrObjectNotExist = errors.New("orb: OBJECT_NOT_EXIST")
	// ErrTransient means the server refused the request (full lane queue).
	ErrTransient = errors.New("orb: TRANSIENT")
	// ErrOverload means the server deliberately shed the request under
	// load (admission refusal or queue eviction) — the replica is alive
	// and protecting itself, which is a different failure from a crash
	// timeout and is what the circuit breaker counts.
	ErrOverload = errors.New("orb: server overloaded (request shed)")
	// ErrDeadlineExpired means the invocation's end-to-end deadline
	// passed before a reply was produced — at the client before sending,
	// in a server lane queue, or while waiting for the reply. Retrying
	// is pointless: the result would be too late anyway.
	ErrDeadlineExpired = errors.New("orb: deadline expired")
	// ErrProtocol means the peer answered with a GIOP MessageError or
	// the reply stream was undecodable (e.g. corrupted on the wire). The
	// request may or may not have executed.
	ErrProtocol = errors.New("orb: GIOP protocol error")
)

// SystemException is a CORBA system exception returned by a servant.
type SystemException = giop.SystemException

// Config parameterises an ORB instance.
type Config struct {
	// ListenPort is the server port. Defaults to 2809.
	ListenPort uint16
	// ByteOrder selects the GIOP encoding (the zero value is canonical
	// big-endian). A test seam: no program sets it; the interop test
	// compares replies in its raw-GIOP script's order.
	ByteOrder cdr.ByteOrder
	// NetMapping maps invocation CORBA priorities to DSCPs on the wire.
	// Defaults to best effort (no network priority management).
	NetMapping rtcorba.NetworkPriorityMapping
	// DisableCollocation forces invocations on objects served by this
	// same ORB through the full marshal/transport/demarshal path
	// instead of the collocated fast path (TAO's collocation
	// optimisation). Useful for measuring what the optimisation buys.
	DisableCollocation bool
	// AttemptTimeout bounds each attempt of an invocation on a group
	// reference when the caller sets no explicit timeout; without it a
	// dead replica would block the invocation forever and failover
	// would never trigger. Defaults to 200ms.
	AttemptTimeout time.Duration
	// BackoffBase is the first backoff between failover attempts; it
	// doubles each retry up to backoffCap, jittered per client. Default
	// 10ms.
	BackoffBase time.Duration
	// BreakerThreshold is the number of consecutive classified failures
	// (overload replies, deadline misses, crash timeouts) to one
	// endpoint before its circuit opens. Defaults to 4.
	BreakerThreshold int
	// BreakerCooldown is the initial open interval before a half-open
	// probe is allowed; it doubles on each failed probe up to
	// breakerCooldownCap. Default 250ms.
	BreakerCooldown time.Duration
}

const (
	// costFixed is the CPU cost of processing one GIOP message
	// (demultiplexing, header handling); costPerKB the additional cost
	// per KiB of message body ((de)marshalling). Every latency the
	// paper figures report includes them: changing either moves qosbench's
	// golden output.
	costFixed = 20 * time.Microsecond
	costPerKB = 8 * time.Microsecond
	// backoffCap bounds one failover backoff: four doublings of the
	// default base.
	backoffCap = 160 * time.Millisecond
	// breakerCooldownCap bounds an open circuit's doubling cooldown.
	breakerCooldownCap = 2 * time.Second
)

func (c *Config) defaults() {
	if c.ListenPort == 0 {
		c.ListenPort = 2809
	}
	if c.NetMapping == nil {
		c.NetMapping = rtcorba.BestEffortMapping{}
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 200 * time.Millisecond
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 4
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
}

// ORB is one Object Request Broker endpoint on a host.
type ORB struct {
	name string
	host *rtos.Host
	ep   *transport.Endpoint
	cfg  Config
	// ioPrio is the native priority of the acceptor and connection
	// reader threads, the host's maximum: the protocol engine must not be
	// starved by application threads.
	ioPrio rtos.Priority
	mm     *rtcorba.MappingManager

	lis      *transport.Listener
	poas     map[string]*POA
	conns    map[netsim.Addr]*transport.StreamConn
	pending  map[uint32]*pendingCall
	currents map[*rtos.Thread]rtcorba.Priority
	reqSeq   uint32

	// Client-side fault tolerance state. clientID identifies this ORB
	// in FT request contexts; ftSeq numbers logical invocations on
	// group references (the retention id); jrand is the per-client
	// jitter stream, seeded from the ORB name so backoff is
	// deterministic per client but decorrelated across clients.
	clientID uint64
	ftSeq    uint32
	jrand    *rand.Rand
	breaker  *orbBreaker

	// Server-side duplicate suppression: a retried FT request is
	// answered from this cache instead of executed twice.
	ftCache *dedup.Cache[ftWaiter]

	clientInterceptors []ClientInterceptor
	serverInterceptors []ServerInterceptor
	tracer             *trace.Tracer
	bus                *events.Bus
}

type pendingCall struct {
	sig   *sim.Signal
	conn  *transport.StreamConn
	reply *giop.Reply
	err   error // set instead of reply on a connection-level failure
}

// New creates an ORB for host attached to network node. The ORB starts
// its acceptor immediately.
func New(name string, host *rtos.Host, net *netsim.Network, node *netsim.Node, cfg Config) *ORB {
	cfg.defaults()
	h := fnv.New64a()
	h.Write([]byte(name))
	cid := h.Sum64()
	o := &ORB{
		name:     name,
		host:     host,
		ep:       transport.NewEndpoint(net, node),
		cfg:      cfg,
		ioPrio:   host.Priorities().Max,
		mm:       rtcorba.NewMappingManager(),
		poas:     make(map[string]*POA),
		conns:    make(map[netsim.Addr]*transport.StreamConn),
		pending:  make(map[uint32]*pendingCall),
		currents: make(map[*rtos.Thread]rtcorba.Priority),
		clientID: cid,
		jrand:    rand.New(rand.NewSource(int64(cid))),
		ftCache:  dedup.New[ftWaiter](ftCacheCap),
	}
	o.breaker = newBreaker(o)
	o.lis = o.ep.Listen(cfg.ListenPort)
	host.Spawn(name+"-acceptor", o.ioPrio, o.acceptLoop)
	return o
}

// Host returns the ORB's host.
func (o *ORB) Host() *rtos.Host { return o.host }

// Addr returns the ORB's listening address.
func (o *ORB) Addr() netsim.Addr { return o.ep.Addr(o.cfg.ListenPort) }

// MappingManager returns the ORB's priority mapping manager.
func (o *ORB) MappingManager() *rtcorba.MappingManager { return o.mm }

// msgCost returns the CPU cost of handling a message of the given size.
func (o *ORB) msgCost(size int) time.Duration {
	return costFixed + time.Duration(int64(costPerKB)*int64(size)/1024)
}

// Current is the RT-CORBA Current interface for one thread: it carries
// the thread's CORBA priority, mapping it to the native scheduler.
type Current struct {
	orb *ORB
	t   *rtos.Thread
}

// Current returns the RTCurrent for thread t.
func (o *ORB) Current(t *rtos.Thread) *Current { return &Current{orb: o, t: t} }

// SetPriority sets the thread's CORBA priority, adjusting its native
// priority through the installed mapping.
func (c *Current) SetPriority(p rtcorba.Priority) error {
	native, ok := c.orb.mm.ToNative(p, c.t.Host().Priorities())
	if !ok {
		return fmt.Errorf("orb: CORBA priority %d does not map on %s", p, c.t.Host().Name())
	}
	c.t.SetPriority(native)
	c.orb.currents[c.t] = p
	return nil
}

// Priority returns the thread's CORBA priority: the value set via
// SetPriority, or the inverse mapping of its native priority.
func (c *Current) Priority() rtcorba.Priority {
	if p, ok := c.orb.currents[c.t]; ok {
		return p
	}
	p, ok := c.orb.mm.ToCORBA(c.t.Priority(), c.t.Host().Priorities())
	if !ok {
		return 0
	}
	return p
}

// connFor returns (creating on demand) the client connection to addr,
// with the DSCP for priority p applied. Banded connections are the wire
// plane's (wire.ClientConfig.Bands); the simulated ORB keeps one
// connection per server.
func (o *ORB) connFor(addr netsim.Addr, p rtcorba.Priority) *transport.StreamConn {
	c, ok := o.conns[addr]
	if !ok {
		localPort := o.ep.Node().EphemeralPort()
		c = o.ep.Dial(localPort, addr)
		o.conns[addr] = c
		o.host.Spawn(fmt.Sprintf("%s-creader-%d", o.name, localPort), o.ioPrio, func(t *rtos.Thread) {
			o.clientReader(c, t)
		})
	}
	c.SetDSCP(o.cfg.NetMapping.ToDSCP(p))
	return c
}

// clientReader drains replies on a client connection, completing pending
// calls.
func (o *ORB) clientReader(c *transport.StreamConn, t *rtos.Thread) {
	for {
		m := c.Recv(t.Proc())
		t.Compute(o.msgCost(len(m.Data)))
		msg, err := giop.Decode(m.Data)
		if err != nil {
			// The reply stream is carrying bytes that do not parse as
			// GIOP — corruption in transit. The reply they carried (if
			// any) is lost; waiting callers must not hang for it.
			o.failPendingOn(c, fmt.Errorf("%w: undecodable reply: %v", ErrProtocol, err))
			continue
		}
		switch rep := msg.(type) {
		case *giop.Reply:
			if pc, ok := o.pending[rep.RequestID]; ok {
				delete(o.pending, rep.RequestID)
				pc.reply = rep
				pc.sig.Broadcast()
			}
		case *giop.MessageError:
			// The peer could not parse something we sent (a corrupted
			// request). It has no request id to report, so every call in
			// flight on this connection is in doubt.
			o.failPendingOn(c, fmt.Errorf("%w: peer sent MessageError", ErrProtocol))
		case *giop.CloseConnection:
			return
		}
	}
}

// failPendingOn fails every pending call issued on connection c with err.
// Request ids are processed in ascending order so wakeups are scheduled
// deterministically.
func (o *ORB) failPendingOn(c *transport.StreamConn, err error) {
	var ids []uint32
	for id, pc := range o.pending {
		if pc.conn == c {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		pc := o.pending[id]
		delete(o.pending, id)
		pc.err = err
		pc.sig.Broadcast()
	}
}

// InvokeOptions tune a single invocation.
type InvokeOptions struct {
	// Oneway suppresses the reply (fire and forget).
	Oneway bool
	// Timeout bounds the wait for a reply; zero waits forever.
	Timeout time.Duration
	// Priority overrides the calling thread's CORBA priority for this
	// invocation. Negative means "use the thread's priority".
	Priority rtcorba.Priority
	// Deadline is the invocation's end-to-end budget (RT-CORBA
	// RELATIVE_RT_TIMEOUT): the reply is worthless after now+Deadline.
	// The absolute expiry travels with the request in a GIOP service
	// context, so every layer — client stub, server lane queue, servant
	// dispatch — can shed the work once it cannot possibly meet it.
	// Zero means no deadline.
	Deadline time.Duration
}

// Invoke performs a synchronous CORBA invocation of op on ref from
// thread t, returning the reply body. Nothing refers to body once the
// call returns, so the caller may reuse it: every attempt copies it into
// its request frame, and a collocated servant that may run after the
// call returns gets a copy of its own.
func (o *ORB) Invoke(t *rtos.Thread, ref *ObjectRef, op string, body []byte) ([]byte, error) {
	return o.InvokeOpt(t, ref, op, body, InvokeOptions{Priority: -1})
}

// InvokeOneway sends a request without waiting for a reply.
func (o *ORB) InvokeOneway(t *rtos.Thread, ref *ObjectRef, op string, body []byte) error {
	_, err := o.InvokeOpt(t, ref, op, body, InvokeOptions{Oneway: true, Priority: -1})
	return err
}

// InvokeOpt is Invoke with explicit options.
func (o *ORB) InvokeOpt(t *rtos.Thread, ref *ObjectRef, op string, body []byte, opts InvokeOptions) ([]byte, error) {
	prio := opts.Priority
	if prio < 0 {
		prio = o.Current(t).Priority()
	}
	// Client interceptors see the request before anything else happens
	// and may adjust its priority or attach service contexts. They
	// bracket the logical invocation once: failover retries and
	// forward-following happen inside, under the same trace context.
	info := &ClientRequestInfo{
		Ref:      ref,
		Op:       op,
		Priority: prio,
		Oneway:   opts.Oneway,
		SentAt:   o.ep.Kernel().Now(),
		Thread:   t,
	}
	if opts.Deadline > 0 {
		info.Deadline = info.SentAt + sim.Time(opts.Deadline)
	}
	o.interceptSend(info)
	prio = info.Priority

	reply, err := o.invokeRouted(t, ref, op, body, prio, opts, info)
	info.Err = err
	info.RTT = o.ep.Kernel().Now() - info.SentAt
	o.interceptReply(info)
	return reply, err
}

// invokeOnce performs exactly one attempt against one profile: the
// collocated fast path when the profile is local, otherwise a GIOP
// request/reply exchange. A LOCATION_FORWARD outcome is returned as a
// *forwardedError for the caller to follow.
func (o *ORB) invokeOnce(t *rtos.Thread, p Profile, op string, body []byte, prio rtcorba.Priority, opts InvokeOptions, timeout time.Duration, info *ClientRequestInfo, extra []giop.ServiceContext) ([]byte, error) {
	// Shed before spending anything: if the deadline already passed
	// (e.g. burned by failover backoff), marshalling and sending would
	// only waste CPU and bandwidth on a reply nobody can use.
	if info.Deadline > 0 && o.ep.Kernel().Now() > info.Deadline {
		o.shedExpired(info, "client")
		return nil, ErrDeadlineExpired
	}
	if !o.cfg.DisableCollocation && p.Addr == o.Addr() {
		return o.invokeCollocated(t, p.Key, op, body, prio, opts, timeout, info)
	}
	o.reqSeq++
	reqID := o.reqSeq

	now := o.ep.Kernel().Now()
	contexts := info.ExtraContexts
	if len(extra) > 0 {
		contexts = append(contexts[:len(contexts):len(contexts)], extra...)
	}
	req := &giop.Request{
		RequestID:        reqID,
		ResponseExpected: !opts.Oneway,
		ObjectKey:        p.Key,
		Operation:        op,
		ServiceContexts:  contexts,
		Body:             body,
	}
	// Marshalling consumes client CPU before the message hits the wire.
	var mspan *trace.Span
	if o.tracer != nil && info.TraceCtx.Valid() {
		mspan = o.tracer.StartChild(info.TraceCtx, "request.marshal", trace.LayerORB)
	}
	t.Compute(o.msgCost(len(body)))
	// The request's frame comes from the network's free list, and the
	// server gives it back once the request is settled (DESIGN §12 rule
	// 1) — bar an FT request's (extra carries its context), which the
	// server keeps.
	var frame []byte
	if len(extra) == 0 {
		frame = o.ep.Frame()
	}
	wire := encodeRequest(frame, req, prio, now, info.Deadline, o.cfg.ByteOrder)
	if mspan != nil {
		mspan.SetAttr(trace.Int("bytes", int64(len(wire))))
		mspan.Finish()
	}

	conn := o.connFor(p.Addr, prio)
	var pc *pendingCall
	if !opts.Oneway {
		pc = &pendingCall{sig: sim.NewSignal(), conn: conn}
		o.pending[reqID] = pc
	}
	// Blocking write: under congestion the client experiences socket-
	// buffer backpressure rather than queueing unboundedly.
	conn.SendWait(t.Proc(), &transport.Message{Data: wire, Ctx: info.TraceCtx})
	if opts.Oneway {
		return nil, nil
	}

	// The reply wait is bounded by both the per-attempt timeout and the
	// remaining deadline budget — whichever is tighter. A deadline-bound
	// expiry is a deadline miss, not a crash timeout.
	deadlineBound := false
	if info.Deadline > 0 {
		remain := time.Duration(info.Deadline - o.ep.Kernel().Now())
		if remain < 0 {
			remain = 0
		}
		if timeout <= 0 || remain < timeout {
			timeout = remain
			deadlineBound = true
		}
	}
	if timeout > 0 || deadlineBound {
		if !pc.sig.WaitTimeout(t.Proc(), timeout) {
			delete(o.pending, reqID)
			// Tell the server to abandon the request if still queued.
			cancel := (&giop.CancelRequest{RequestID: reqID}).Marshal(o.cfg.ByteOrder)
			conn.Send(&transport.Message{Data: cancel})
			if deadlineBound {
				o.shedExpired(info, "client")
				return nil, ErrDeadlineExpired
			}
			return nil, ErrTimeout
		}
	} else {
		pc.sig.Wait(t.Proc())
	}
	if pc.err != nil {
		return nil, pc.err
	}
	rep := pc.reply
	// Demarshalling the reply consumes client CPU.
	var dspan *trace.Span
	if o.tracer != nil && info.TraceCtx.Valid() {
		dspan = o.tracer.StartChild(info.TraceCtx, "reply.demarshal", trace.LayerORB)
	}
	t.Compute(o.msgCost(len(rep.Body)))
	if dspan != nil {
		dspan.SetAttr(trace.Int("bytes", int64(len(rep.Body))))
		dspan.Finish()
	}
	switch rep.Status {
	case giop.StatusNoException:
		return rep.Body, nil
	case giop.StatusSystemException:
		return nil, decodeSystemException(rep, o.cfg.ByteOrder)
	case giop.StatusLocationForward:
		fref, err := decodeForward(rep.Body, o.cfg.ByteOrder)
		if err != nil {
			return nil, err
		}
		return nil, &forwardedError{ref: fref}
	default:
		return nil, fmt.Errorf("orb: unsupported reply status %v", rep.Status)
	}
}

// encodeRequest appends req to frame with its priority, send time now
// and deadline (zero for none) encoded ahead of its own contexts: the
// bytes, and so every message's cost, equal those of a request whose
// ServiceContexts start with the three contexts' values.
func encodeRequest(frame []byte, req *giop.Request, prio rtcorba.Priority, now, deadline sim.Time, order cdr.ByteOrder) []byte {
	qos := giop.RequestQoS{Priority: int16(prio), HasPriority: true, SentAt: int64(now), HasSentAt: true, Deadline: int64(deadline)}
	return req.AppendQoS(frame, order, &qos)
}

// shedExpired emits the zero-length deadline_expired span that marks
// where on the invocation path an expired request was dropped.
func (o *ORB) shedExpired(info *ClientRequestInfo, where string) {
	if o.tracer == nil || !info.TraceCtx.Valid() {
		return
	}
	s := o.tracer.StartChild(info.TraceCtx, "deadline_expired", trace.LayerOverload)
	s.SetAttr(trace.String("at", where), trace.Dur("deadline", info.Deadline))
	s.Finish()
}

// resolveKey finds the POA and servant for an object key. A key that
// resolves to none gets the OBJECT_NOT_EXIST minor code saying why: 1
// for a malformed key, 2 for an unknown POA, 3 for an unknown object.
func (o *ORB) resolveKey(key []byte) (*POA, Servant, uint32) {
	poaName, objID, ok := strings.Cut(string(key), "/")
	if !ok {
		return nil, nil, 1
	}
	poa, ok := o.poas[poaName]
	if !ok {
		return nil, nil, 2
	}
	servant, ok := poa.servants[objID]
	if !ok {
		return nil, nil, 3
	}
	return poa, servant, 0
}

// invokeCollocated is the collocation fast path: when the target object
// lives in this same ORB, the request skips marshalling and the
// transport entirely and is dispatched straight onto the target POA's
// thread pool — priority semantics (the priority model, lane selection,
// native priority at dispatch) are fully preserved, as TAO's collocated
// stubs preserve them.
func (o *ORB) invokeCollocated(t *rtos.Thread, key []byte, op string, body []byte, prio rtcorba.Priority, opts InvokeOptions, timeout time.Duration, info *ClientRequestInfo) ([]byte, error) {
	tctx := info.TraceCtx
	poa, servant, minor := o.resolveKey(key)
	if minor != 0 {
		return nil, fmt.Errorf("%w (collocated, key %q, minor %d)", ErrObjectNotExist, key, minor)
	}
	if poa.cfg.Model == rtcorba.ServerDeclared {
		prio = poa.cfg.ServerPriority
	}
	// A collocated call still costs a (small) constant: TAO's collocated
	// stubs avoid (de)marshalling but not the dispatch machinery.
	t.Compute(costFixed / 4)
	if opts.Oneway || timeout > 0 {
		// The call can return before the servant runs: the servant must
		// not see the caller reuse body.
		body = append([]byte(nil), body...)
	}

	c := &serverCall{
		ServerRequest: ServerRequest{Op: op, Body: body, Priority: prio, ORB: o, Oneway: opts.Oneway, TraceCtx: tctx},
		servant:       servant,
		done:          sim.NewSignal(),
	}
	if !poa.pool.Dispatch(rtcorba.Work{Priority: prio, Job: c, Ctx: tctx, Deadline: info.Deadline}) {
		return nil, fmt.Errorf("%w (collocated, lane refused)", ErrOverload)
	}
	if opts.Oneway {
		return nil, nil
	}
	if timeout > 0 {
		if !c.done.WaitTimeout(t.Proc(), timeout) {
			return nil, ErrTimeout
		}
	} else {
		c.done.Wait(t.Proc())
	}
	if c.err != nil {
		var fr *ForwardRequest
		if errors.As(c.err, &fr) {
			// Collocated servants can forward too; surface it the same
			// way the wire path does so the invocation loop follows it.
			return nil, &forwardedError{ref: fr.Ref}
		}
	}
	return c.reply, c.err
}

// decodeSystemException maps a SYSTEM_EXCEPTION reply onto the ORB's
// error sentinels; exceptions without QoS meaning pass through.
func decodeSystemException(rep *giop.Reply, order cdr.ByteOrder) error {
	se := giop.DecodeSystemException(rep.Body, order)
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
