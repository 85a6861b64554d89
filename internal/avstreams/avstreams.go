// Package avstreams implements the subset of the CORBA Audio/Video
// Streaming Service the paper's application suite uses: stream endpoints
// on sender and receiver hosts, an explicit bind step that establishes
// the data path and can attach an RSVP bandwidth reservation to the
// underlying network connection (exactly where the paper integrates
// IntServ), per-stream QuO frame filtering, and delivery accounting.
//
// Video frames travel as datagrams fragmented at the MTU; a lost
// fragment loses the frame, reproducing the testbed's UDP data path.
package avstreams

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/video"
)

// framePacket is one video frame on the wire: the datagram message and
// the simulated object it carries (msg.Payload points back at the
// framePacket), in one record. msg.Ctx is the frame's trace span: opened
// by the sender, closed by the receiving endpoint (or left open —
// flagged unfinished — when the frame is lost in the network).
type framePacket struct {
	msg    transport.Message
	frame  video.Frame
	sentAt sim.Time
}

// QoS describes the network QoS requested at bind time.
type QoS struct {
	// ReserveBps, when positive, attaches an RSVP reservation of this
	// rate to the stream's path (the paper's full reservation is
	// 1.2 Mbps, the partial one 670 Kbps).
	ReserveBps float64
	// BurstBytes is the reservation token-bucket depth; defaults to
	// twice the largest frame the stream config produces.
	BurstBytes int
	// QueueBytes bounds the reservation's per-hop flow queue; zero
	// picks the netsim default (4x the burst).
	QueueBytes int
	// DSCP marks the stream's packets (DiffServ prioritisation).
	DSCP netsim.DSCP
}

// Service is the per-host A/V streaming service instance.
type Service struct {
	host *rtos.Host
	net  *netsim.Network
	ep   *transport.Endpoint

	// SendCostFixed/SendCostPerKB model per-frame CPU spent on the
	// sending host (encode/packetise); Recv* likewise on the receiver.
	SendCostFixed time.Duration
	SendCostPerKB time.Duration
	RecvCostFixed time.Duration
	RecvCostPerKB time.Duration

	tracer *trace.Tracer
}

// SetTracer enables per-frame tracing on streams sent and received by
// this service instance. With the network's tracer set to the same
// tracer, each frame's trace shows the full path sender → (distributor
// →) receiver under one trace ID, per-hop transit included.
func (s *Service) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// NewService creates the service for host attached to node.
func NewService(host *rtos.Host, net *netsim.Network, node *netsim.Node) *Service {
	return &Service{
		host:          host,
		net:           net,
		ep:            transport.NewEndpoint(net, node),
		SendCostFixed: 30 * time.Microsecond,
		SendCostPerKB: 5 * time.Microsecond,
		RecvCostFixed: 30 * time.Microsecond,
		RecvCostPerKB: 5 * time.Microsecond,
	}
}

func (s *Service) frameCost(fixed, perKB time.Duration, size int) time.Duration {
	return fixed + time.Duration(int64(perKB)*int64(size)/1024)
}

// FrameHandler consumes frames on the receiving side.
type FrameHandler func(f video.Frame, sentAt, recvAt sim.Time)

// Receiver is a stream sink endpoint.
type Receiver struct {
	svc     *Service
	conn    *transport.DgramConn
	port    uint16
	Stats   *video.DeliveryStats
	Latency []time.Duration
	arrived []sim.Time
	handler FrameHandler
	prio    rtos.Priority
	// ctxHandler, when set, is called instead of handler with the
	// frame's trace context so in-process relays (the distributor) can
	// chain their downstream spans onto the inbound trace.
	ctxHandler func(f video.Frame, sentAt, recvAt sim.Time, ctx trace.SpanContext)
}

// ArrivalTimes returns the arrival time of each received frame, aligned
// index-for-index with Latency.
func (r *Receiver) ArrivalTimes() []sim.Time { return r.arrived }

// CreateReceiver binds a receiving endpoint on port; frames are handed to
// handler (which may be nil) from a dedicated thread at prio.
func (s *Service) CreateReceiver(port uint16, prio rtos.Priority, handler FrameHandler) *Receiver {
	r := &Receiver{
		svc:     s,
		conn:    s.ep.OpenDgram(port, 0),
		port:    port,
		Stats:   video.NewDeliveryStats(),
		handler: handler,
		prio:    prio,
	}
	s.host.Spawn(fmt.Sprintf("avrecv-%d", port), prio, r.loop)
	return r
}

// Addr returns the receiver's network address.
func (r *Receiver) Addr() netsim.Addr { return r.conn.LocalAddr() }

// SetHandler replaces the receiver's frame handler (e.g. to wire a
// distributor's forwarding path after the endpoints exist).
func (r *Receiver) SetHandler(h FrameHandler) { r.handler = h }

func (r *Receiver) loop(t *rtos.Thread) {
	for {
		m := r.conn.Recv(t.Proc())
		fp, ok := m.Payload.(*framePacket)
		if !ok {
			continue
		}
		tr := r.svc.tracer
		var rspan *trace.Span
		if tr != nil && m.Ctx.Valid() {
			rspan = tr.StartChild(m.Ctx, "frame.recv", trace.LayerAVStreams)
		}
		t.Compute(r.svc.frameCost(r.svc.RecvCostFixed, r.svc.RecvCostPerKB, fp.frame.Size))
		now := t.Now()
		if rspan != nil {
			rspan.Finish()
		}
		r.Stats.RecordReceived(fp.frame, now)
		r.Latency = append(r.Latency, time.Duration(now-fp.sentAt))
		r.arrived = append(r.arrived, now)
		if tr != nil && m.Ctx.Valid() {
			// Delivery closes the span the sender opened for this frame.
			tr.Finish(m.Ctx)
		}
		if r.ctxHandler != nil {
			r.ctxHandler(fp.frame, fp.sentAt, now, m.Ctx)
		} else if r.handler != nil {
			r.handler(fp.frame, fp.sentAt, now)
		}
	}
}

// Sender is a stream source endpoint.
type Sender struct {
	svc  *Service
	conn *transport.DgramConn
	port uint16
}

// CreateSender binds a sending endpoint on port.
func (s *Service) CreateSender(port uint16) *Sender {
	return &Sender{svc: s, conn: s.ep.OpenDgram(port, 0), port: port}
}

// Stream is an established (bound) flow from a sender to a receiver.
type Stream struct {
	sender *Sender
	dst    netsim.Addr
	resv   *netsim.Reservation
	filter video.FilterLevel
	Stats  *video.DeliveryStats

	// FilteredFrames counts frames suppressed by the QuO filter.
	FilteredFrames int64
}

// Bind establishes the stream to a receiver, optionally attaching an RSVP
// reservation per qos. It must run on a simulation process (it blocks for
// the signalling round trip).
func (snd *Sender) Bind(p *sim.Proc, dst netsim.Addr, qos QoS) (*Stream, error) {
	st := &Stream{
		sender: snd,
		dst:    dst,
		Stats:  video.NewDeliveryStats(),
	}
	snd.conn.SetDSCP(qos.DSCP)
	if qos.ReserveBps > 0 {
		burst := qos.BurstBytes
		if burst == 0 {
			burst = 32 * 1024
		}
		src := snd.svc.ep.Node()
		dstNode := snd.svc.net.Node(dst.Node)
		resv, err := snd.svc.net.ReserveFlow(p, netsim.ReservationSpec{
			Flow:       snd.conn.Flow(),
			Src:        src,
			Dst:        dstNode,
			RateBps:    qos.ReserveBps,
			BurstBytes: burst,
			QueueBytes: qos.QueueBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("avstreams: bind reservation: %w", err)
		}
		st.resv = resv
	}
	return st, nil
}

// Dst returns the stream's current destination address.
func (st *Stream) Dst() netsim.Addr { return st.dst }

// Retarget switches the stream's destination — the failover knob a
// fault-tolerance manager turns when the receiver's host crashes and a
// backup takes over. Frames already in flight keep their old
// destination; any attached reservation is NOT migrated (a failover
// runs best-effort until the manager re-reserves).
func (st *Stream) Retarget(dst netsim.Addr) { st.dst = dst }

// SetFilter sets the QuO frame-filtering level; the next SendFrame
// applies it. Contracts call this from transition callbacks.
func (st *Stream) SetFilter(l video.FilterLevel) { st.filter = l }

// SetDSCP re-marks the stream's packets (QuO adaptation knob).
func (st *Stream) SetDSCP(d netsim.DSCP) { st.sender.conn.SetDSCP(d) }

// SendFrame offers a frame to the stream from thread t. It returns false
// if the frame was suppressed by the current filter level. Sending
// consumes CPU on the sender.
func (st *Stream) SendFrame(t *rtos.Thread, f video.Frame) bool {
	return st.sendFrame(t, f, trace.SpanContext{})
}

// sendFrame is SendFrame with an optional parent trace context: a valid
// parent (the distributor's inbound frame span) makes this leg a branch
// of the same trace instead of a fresh root.
func (st *Stream) sendFrame(t *rtos.Thread, f video.Frame, parent trace.SpanContext) bool {
	svc := st.sender.svc
	if !st.filter.Admits(f.Type) {
		st.FilteredFrames++
		if svc.tracer != nil && parent.Valid() {
			// Make QuO filtering visible in the end-to-end trace as a
			// zero-length span on the branch.
			sp := svc.tracer.StartChild(parent, "frame.filtered", trace.LayerAVStreams)
			sp.SetAttr(trace.String("type", f.Type.String()))
			sp.Finish()
		}
		return false
	}
	var span *trace.Span
	if svc.tracer != nil {
		name := fmt.Sprintf("frame %d", f.Seq)
		if parent.Valid() {
			span = svc.tracer.StartChild(parent, name, trace.LayerAVStreams)
		} else {
			span = svc.tracer.StartRoot(name, trace.LayerAVStreams)
		}
		span.SetAttr(
			trace.String("type", f.Type.String()),
			trace.Int("bytes", int64(f.Size)),
		)
	}
	t.Compute(svc.frameCost(svc.SendCostFixed, svc.SendCostPerKB, f.Size))
	now := t.Now()
	st.Stats.RecordSent(f, now)
	fp := &framePacket{frame: f, sentAt: now}
	fp.msg = transport.Message{Payload: fp, Size: f.Size}
	if span != nil {
		fp.msg.Ctx = span.Context()
	}
	st.sender.conn.Send(st.dst, &fp.msg)
	return true
}

// RunSource pumps frames from gen through the stream at the configured
// frame rate for the given duration. It blocks the calling thread.
func (st *Stream) RunSource(t *rtos.Thread, gen *video.Generator, dur time.Duration) {
	deadline := t.Now() + dur
	next := t.Now()
	for t.Now() < deadline {
		f := gen.Next()
		st.SendFrame(t, f)
		next += video.FrameInterval
		if sleep := next - t.Now(); sleep > 0 {
			t.Sleep(sleep)
		}
	}
}
