package orb

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dedup"
	"repro/internal/giop"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Servant is a CORBA object implementation. Dispatch runs on a thread-
// pool thread whose priority has been set per the POA's priority model;
// it returns a CDR-encoded reply body or an error (reported to the
// client as a system exception).
type Servant interface {
	Dispatch(req *ServerRequest) ([]byte, error)
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(req *ServerRequest) ([]byte, error)

// Dispatch implements Servant.
func (f ServantFunc) Dispatch(req *ServerRequest) ([]byte, error) { return f(req) }

// ServerRequest carries one inbound invocation to a servant.
type ServerRequest struct {
	// Op is the operation name from the GIOP request header.
	Op string
	// Body is the CDR-encoded argument stream. It is valid until Dispatch
	// returns: Body is a view of a frame the ORB recycles once the
	// request is settled. A servant that keeps Body
	// past its return calls Retain first; returning it as the reply needs
	// no Retain, since the reply is encoded before the frame goes back.
	Body []byte
	// Priority is the effective CORBA priority of this dispatch.
	Priority rtcorba.Priority
	// SentAt is the client's send time from the invocation-timestamp
	// service context (zero if absent), enabling one-way latency
	// measurements.
	SentAt sim.Time
	// Thread is the pool thread executing the dispatch; servants use it
	// to consume CPU (Compute) and block on simulation primitives.
	Thread *rtos.Thread
	// ORB is the receiving ORB.
	ORB *ORB
	// Oneway reports whether the client expects no reply.
	Oneway bool
	// TraceCtx is the trace context propagated from the client via the
	// ServiceTraceContext GIOP service context (invalid when the client
	// did not trace the invocation).
	TraceCtx trace.SpanContext

	dspan *trace.Span // open dispatch span owned by the ServerTracer
	frame []byte      // the recycled frame Body views, nil once retained or released
}

// Now returns the current virtual time.
func (r *ServerRequest) Now() sim.Time { return r.Thread.Now() }

// Retain makes Body the servant's to keep: the ORB leaves its frame to
// the collector instead of recycling it.
func (r *ServerRequest) Retain() { r.frame = nil }

// release gives the request's frame back to the network's free list,
// once: the request is settled.
func (r *ServerRequest) release() {
	if r.frame != nil {
		r.ORB.ep.ReleaseFrame(r.frame)
		r.frame = nil
	}
}

// POAConfig configures a portable object adapter.
type POAConfig struct {
	// Model selects the dispatch priority model. Defaults to
	// ClientPropagated.
	Model rtcorba.PriorityModel
	// ServerPriority is the declared CORBA priority for ServerDeclared
	// POAs (also the default dispatch priority when a client-propagated
	// request carries no priority context).
	ServerPriority rtcorba.Priority
	// Lanes configures the POA's thread pool. Defaults to one lane at
	// ServerPriority with one thread.
	Lanes []rtcorba.LaneConfig
}

// POA is a portable object adapter: it demultiplexes object keys to
// servants in constant time (the analogue of TAO's active demux and
// perfect hashing) and dispatches requests onto its RT thread pool.
type POA struct {
	name     string
	orb      *ORB
	cfg      POAConfig
	pool     *rtcorba.ThreadPool
	servants map[string]Servant
}

// CreatePOA creates a POA named name. Names must not contain '/'.
func (o *ORB) CreatePOA(name string, cfg POAConfig) (*POA, error) {
	if strings.Contains(name, "/") {
		return nil, fmt.Errorf("orb: POA name %q contains '/'", name)
	}
	if _, dup := o.poas[name]; dup {
		return nil, fmt.Errorf("orb: POA %q already exists", name)
	}
	if cfg.Model == 0 {
		cfg.Model = rtcorba.ClientPropagated
	}
	if len(cfg.Lanes) == 0 {
		cfg.Lanes = []rtcorba.LaneConfig{{Priority: cfg.ServerPriority, Threads: 1}}
	}
	pool, err := rtcorba.NewThreadPool(o.host, o.mm, cfg.Lanes...)
	if err != nil {
		return nil, err
	}
	if o.tracer != nil {
		pool.SetTracer(o.tracer)
	}
	if o.bus != nil {
		pool.SetBus(o.bus, "pool/"+o.name+"/"+name)
	}
	p := &POA{
		name:     name,
		orb:      o,
		cfg:      cfg,
		pool:     pool,
		servants: make(map[string]Servant),
	}
	o.poas[name] = p
	return p, nil
}

// Pool returns the POA's thread pool, for inspection.
func (p *POA) Pool() *rtcorba.ThreadPool { return p.pool }

// Activate registers servant under id and returns its object reference.
func (p *POA) Activate(id string, s Servant) (*ObjectRef, error) {
	if strings.Contains(id, "/") {
		return nil, fmt.Errorf("orb: object id %q contains '/'", id)
	}
	if _, dup := p.servants[id]; dup {
		return nil, fmt.Errorf("orb: object %q already active in POA %q", id, p.name)
	}
	p.servants[id] = s
	return &ObjectRef{
		Addr:           p.orb.Addr(),
		Key:            []byte(p.name + "/" + id),
		Model:          p.cfg.Model,
		ServerPriority: p.cfg.ServerPriority,
	}, nil
}

// acceptLoop runs on the ORB's acceptor thread, spawning a reader per
// inbound connection.
func (o *ORB) acceptLoop(t *rtos.Thread) {
	for {
		conn := o.lis.Accept(t.Proc())
		name := fmt.Sprintf("%s-sreader-%v", o.name, conn.RemoteAddr())
		o.host.Spawn(name, o.ioPrio, func(rt *rtos.Thread) {
			o.serverReader(conn, rt)
		})
	}
}

// serverReader parses inbound GIOP messages on one connection and
// dispatches requests. It runs at the ORB I/O priority; per-request work
// is handed to the target POA's thread pool.
func (o *ORB) serverReader(conn *transport.StreamConn, t *rtos.Thread) {
	// Request ids the client has cancelled; still-queued dispatches for
	// them are abandoned before reaching the servant.
	cancelled := make(map[uint32]bool)
	for {
		m := conn.Recv(t.Proc())
		t.Compute(o.msgCost(len(m.Data)))
		msg, err := giop.Decode(m.Data)
		if err != nil {
			conn.Send(&transport.Message{Data: (&giop.MessageError{}).Marshal(o.cfg.ByteOrder)})
			continue
		}
		switch req := msg.(type) {
		case *giop.Request:
			o.dispatchRequest(conn, req, m.Data, cancelled)
		case *giop.LocateRequest:
			status := giop.LocateUnknownObject
			if _, _, ok := o.resolveKey(req.ObjectKey); ok {
				status = giop.LocateObjectHere
			}
			rep := &giop.LocateReply{RequestID: req.RequestID, Status: status}
			conn.Send(&transport.Message{Data: rep.Marshal(o.cfg.ByteOrder)})
		case *giop.CancelRequest:
			cancelled[req.RequestID] = true
		case *giop.CloseConnection:
			conn.Close()
			return
		}
	}
}

// ftWaiter is a retransmitted FT request parked in the at-most-once
// cache until the original execution settles.
type ftWaiter struct {
	conn  *transport.StreamConn
	reqID uint32
	tctx  trace.SpanContext
}

// ftCacheCap bounds the at-most-once reply cache.
const ftCacheCap = 512

// exception encodes a system-exception reply body in the ORB's byte order.
func (o *ORB) exception(id string, minor uint32) []byte {
	return giop.EncodeSystemException(id, minor, o.cfg.ByteOrder)
}

// sendReply marshals and sends one reply on conn.
func (o *ORB) sendReply(conn *transport.StreamConn, reqID uint32, tctx trace.SpanContext, status giop.ReplyStatus, body []byte) {
	rep := &giop.Reply{RequestID: reqID, Status: status, Body: body}
	conn.Send(&transport.Message{Data: rep.Marshal(o.cfg.ByteOrder), Ctx: tctx})
}

// dispatchRequest demultiplexes a request, decoded in place from frame,
// to its servant and queues it on the POA's thread pool.
func (o *ORB) dispatchRequest(conn *transport.StreamConn, req *giop.Request, frame []byte, cancelled map[uint32]bool) {
	qos := giop.ParseRequestQoS(req.ServiceContexts)
	// Even error replies (bad key, full lane) join the caller's trace.
	var tctx trace.SpanContext
	if o.tracer != nil {
		tctx = trace.SpanContext{Trace: trace.TraceID(qos.TraceID), Span: trace.SpanID(qos.SpanID)}
	}
	// The request's frame goes back to the network's free list once the
	// request is settled (DESIGN §12 rule 1).
	sreq := &ServerRequest{
		Op:       req.Operation,
		Body:     req.Body,
		ORB:      o,
		Oneway:   !req.ResponseExpected,
		TraceCtx: tctx,
		frame:    frame,
	}
	if qos.HasFT {
		// The at-most-once cache keeps the reply, and an echo servant's
		// reply is Body: the ORB keeps the frame, as a servant that calls
		// Retain does.
		sreq.Retain()
	}

	// Duplicate suppression for fault-tolerant requests: a failover
	// retry carries the same FT key as the original, so if this replica
	// already executed it — or is still executing it — the retry must
	// not run the servant a second time.
	hasFT := req.ResponseExpected && qos.HasFT
	if hasFT {
		switch verdict, cached := o.ftCache.Admit(qos.FT, ftWaiter{conn: conn, reqID: req.RequestID, tctx: tctx}); verdict {
		case dedup.Replay:
			o.sendReply(conn, req.RequestID, tctx, cached.Status, cached.Body)
			return
		case dedup.Parked:
			return
		}
	}

	// settle answers the request and any retransmissions parked on it,
	// then releases the frame: the reply is encoded by then. An executed
	// outcome is cached for later retries; a refused one never reached
	// the servant and is forgotten, so a retry may still execute. A bad
	// key is a deterministic outcome, cached like an execution.
	const executed, refused = true, false
	settle := func(ran bool, status giop.ReplyStatus, body []byte) {
		if req.ResponseExpected {
			if hasFT {
				var parked []ftWaiter
				if ran {
					parked = o.ftCache.Complete(qos.FT, dedup.Reply{Status: status, Body: body})
				} else {
					parked = o.ftCache.Abort(qos.FT)
				}
				for _, w := range parked {
					o.sendReply(w.conn, w.reqID, w.tctx, status, body)
				}
			}
			o.sendReply(conn, req.RequestID, tctx, status, body)
		}
		sreq.release()
	}

	poaName, objID, ok := strings.Cut(string(req.ObjectKey), "/")
	if !ok {
		settle(executed, giop.StatusSystemException, o.exception(giop.ExcObjectNotExist, 1))
		return
	}
	poa, ok := o.poas[poaName]
	if !ok {
		settle(executed, giop.StatusSystemException, o.exception(giop.ExcObjectNotExist, 2))
		return
	}
	servant, ok := poa.servants[objID]
	if !ok {
		settle(executed, giop.StatusSystemException, o.exception(giop.ExcObjectNotExist, 3))
		return
	}

	// Effective dispatch priority per the POA's priority model.
	prio := poa.cfg.ServerPriority
	if poa.cfg.Model == rtcorba.ClientPropagated && qos.HasPriority {
		prio = rtcorba.Priority(qos.Priority)
	}
	sreq.Priority, sreq.SentAt = prio, sim.Time(qos.SentAt)
	deadline := sim.Time(qos.Deadline)
	// Expired on arrival (it spent its budget on the wire or in socket
	// buffers): shed it here rather than waste a lane slot on it.
	if deadline > 0 && o.ep.Kernel().Now() > deadline {
		if o.tracer != nil && tctx.Valid() {
			s := o.tracer.StartChild(tctx, "deadline_expired", trace.LayerOverload)
			s.SetAttr(trace.String("at", "server"), trace.Dur("deadline", deadline))
			s.Finish()
		}
		settle(refused, giop.StatusSystemException, o.exception(giop.ExcTimeout, 1))
		return
	}

	work := rtcorba.Work{
		Priority: prio,
		Ctx:      tctx,
		Deadline: deadline,
		Shed: func(r rtcorba.ShedReason) {
			// The pool dropped the request (deadline expired while
			// queued, or evicted for a higher-priority arrival). Tell
			// the client which, so it can classify the failure.
			if r == rtcorba.ShedDeadline {
				settle(refused, giop.StatusSystemException, o.exception(giop.ExcTimeout, 2))
			} else {
				settle(refused, giop.StatusSystemException, o.exception(giop.ExcTransient, giop.MinorShed))
			}
		},
		Fn: func(t *rtos.Thread) {
			if cancelled[req.RequestID] {
				delete(cancelled, req.RequestID)
				// A failover retransmission parked on this request still
				// wants the outcome: then execute anyway.
				if !hasFT || o.ftCache.Cancel(qos.FT) {
					sreq.release()
					return
				}
			}
			sreq.Thread = t
			sinfo := &ServerRequestInfo{Request: sreq}
			o.interceptReceive(sinfo)
			body, err := servant.Dispatch(sreq)
			sinfo.Err = err
			o.interceptSendReply(sinfo)
			var rspan *trace.Span
			if o.tracer != nil && tctx.Valid() {
				rspan = o.tracer.StartChild(tctx, "reply.marshal", trace.LayerORB)
			}
			var fr *ForwardRequest
			if errors.As(err, &fr) {
				// The servant redirected the client (e.g. a backup
				// pointing at the new primary after promotion).
				t.Compute(o.msgCost(64))
				if rspan != nil {
					rspan.SetAttr(trace.String("forward", fr.Ref.Addr.String()))
					rspan.Finish()
				}
				settle(executed, giop.StatusLocationForward, encodeForward(fr.Ref, o.cfg.ByteOrder))
				return
			}
			if err != nil {
				var se *SystemException
				id, minor := giop.ExcUnknown, uint32(0)
				if errors.As(err, &se) {
					id, minor = se.ID, se.Minor
				}
				// Marshalling the exception reply costs CPU too.
				t.Compute(o.msgCost(64))
				if rspan != nil {
					rspan.Finish()
				}
				settle(executed, giop.StatusSystemException, o.exception(id, minor))
				return
			}
			t.Compute(o.msgCost(len(body)))
			if rspan != nil {
				rspan.SetAttr(trace.Int("bytes", int64(len(body))))
				rspan.Finish()
			}
			settle(executed, giop.StatusNoException, body)
		},
	}
	if !poa.pool.Dispatch(work) {
		// Admission control refused the request (watermark hit, or the
		// lane is full and this arrival would not win an eviction).
		// Minor 2 distinguishes the deliberate shed from legacy
		// lane-full TRANSIENT replies, so clients classify it as
		// overload rather than a transient glitch.
		settle(refused, giop.StatusSystemException, o.exception(giop.ExcTransient, giop.MinorShed))
	}
}
