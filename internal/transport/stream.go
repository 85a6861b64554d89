package transport

import (
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Stream transport constants.
const (
	// streamWindow is the go-back-N send window in segments.
	streamWindow = 32
	// initialRTO is the first retransmission timeout.
	initialRTO = 100 * time.Millisecond
	// maxRTO caps exponential backoff.
	maxRTO = 2 * time.Second
	// ackSize is the wire size of a pure acknowledgment.
	ackSize = headerBytes
)

// segment is the stream protocol PDU carried as a packet payload.
type segment struct {
	seq   uint64 // sequence number of this data segment
	ack   uint64 // cumulative ack: next expected sequence
	isAck bool
	last  bool // final segment of its message
	msg   *Message
	size  int // payload bytes this segment represents
}

// CorruptCopy implements netsim.Corrupter: injected corruption flips one
// payload bit in a copy of the carried message. Header fields (seq/ack)
// are protocol-checksummed on a real wire, so corruption there — and on
// pure acks or byteless payloads — destroys the packet instead (nil).
// The copy shares nothing mutable with the original, which may still be
// queued for go-back-N retransmission. A segment of a message already
// delivered may be copied too, after the receiver has released and
// reused the message's bytes (Endpoint.ReleaseFrame): the copy reads
// whatever they hold now, but its sequence number is behind the
// receiver's, so it is never delivered.
func (s *segment) CorruptCopy(r *rand.Rand) any {
	if s.isAck || s.msg == nil || len(s.msg.Data) == 0 {
		return nil
	}
	msg := *s.msg
	msg.Data = append([]byte(nil), s.msg.Data...)
	bit := r.Intn(len(msg.Data) * 8)
	msg.Data[bit/8] ^= 1 << (bit % 8)
	cp := *s
	cp.msg = &msg
	return &cp
}

// StreamConn is a reliable, in-order message channel over the simulated
// network, with go-back-N retransmission and exponential RTO backoff.
// Under congestion messages are never lost — they are late, which is how
// GIOP-over-TCP behaves in the paper's testbed.
type StreamConn struct {
	ep     *Endpoint
	port   uint16
	remote netsim.Addr
	dscp   netsim.DSCP
	flow   netsim.FlowID
	owner  *Listener // nil on the dialing side
	closed bool

	// Sender state.
	nextSeq     uint64
	base        uint64
	outstanding sim.Ring[*segment] // sent, not yet acknowledged
	backlog     sim.Ring[*segment] // segments waiting for window space
	buffered    int                // bytes in outstanding + backlog
	bufferLimit int                // send-buffer bound for SendWait
	space       *sim.Signal
	rto         time.Duration
	rtoTimer    sim.Event
	onRTO       func() // onTimeout, bound once: the timer is re-armed per ack
	retransmits int64
	dupAcks     int

	// Receiver state.
	expected uint64
	recvBuf  map[uint64]*segment // out-of-order segments awaiting the gap fill
	recvQ    *sim.Queue[*Message]
}

// recvBufLimit bounds the out-of-order reassembly buffer (segments).
const recvBufLimit = 256

// Listener accepts incoming stream connections on a port.
type Listener struct {
	ep     *Endpoint
	port   uint16
	conns  map[netsim.Addr]*StreamConn
	accept *sim.Queue[*StreamConn]
}

// Listen binds a stream listener on port.
func (e *Endpoint) Listen(port uint16) *Listener {
	l := &Listener{
		ep:     e,
		port:   port,
		conns:  make(map[netsim.Addr]*StreamConn),
		accept: sim.NewQueue[*StreamConn](),
	}
	e.node.Bind(port, l.onPacket)
	return l
}

// Accept blocks until a new connection arrives.
func (l *Listener) Accept(p *sim.Proc) *StreamConn {
	return l.accept.Get(p)
}

func (l *Listener) onPacket(p *netsim.Packet) {
	seg, ok := p.Payload.(*segment)
	if !ok {
		return
	}
	c, ok := l.conns[p.Src]
	if !ok {
		c = newStreamConn(l.ep, l.port, p.Src, l)
		l.conns[p.Src] = c
		l.accept.Put(c)
	}
	c.onSegment(seg)
}

// Dial opens a stream connection from localPort to remote. The connection
// is usable immediately; the peer materialises it on first contact.
func (e *Endpoint) Dial(localPort uint16, remote netsim.Addr) *StreamConn {
	c := newStreamConn(e, localPort, remote, nil)
	e.node.Bind(localPort, func(p *netsim.Packet) {
		if seg, ok := p.Payload.(*segment); ok && p.Src == remote {
			c.onSegment(seg)
		}
	})
	return c
}

func newStreamConn(e *Endpoint, port uint16, remote netsim.Addr, owner *Listener) *StreamConn {
	c := &StreamConn{
		ep:          e,
		port:        port,
		remote:      remote,
		owner:       owner,
		flow:        e.net.NewFlowID(),
		rto:         initialRTO,
		recvBuf:     make(map[uint64]*segment),
		recvQ:       sim.NewQueue[*Message](),
		bufferLimit: 64 * 1024,
		space:       sim.NewSignal(),
	}
	c.onRTO = c.onTimeout
	return c
}

// RemoteAddr returns the peer address.
func (c *StreamConn) RemoteAddr() netsim.Addr { return c.remote }

// LocalAddr returns the local address.
func (c *StreamConn) LocalAddr() netsim.Addr { return c.ep.Addr(c.port) }

// SetDSCP marks outgoing packets (data and acks) with d. This implements
// the TAO extension that lets RT-CORBA protocol properties set the
// DiffServ codepoint on GIOP traffic.
func (c *StreamConn) SetDSCP(d netsim.DSCP) { c.dscp = d }

// DSCP returns the current outgoing codepoint.
func (c *StreamConn) DSCP() netsim.DSCP { return c.dscp }

// Close tears the connection down locally: timers stop and, on the
// dialing side, the port is released. In-flight data is abandoned.
func (c *StreamConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.rtoTimer.Cancel()
	c.rtoTimer = sim.Event{}
	c.space.Broadcast()
	if c.owner == nil {
		c.ep.node.Unbind(c.port)
	} else {
		delete(c.owner.conns, c.remote)
	}
}

// Send queues a message for reliable delivery and returns immediately;
// transmission and retransmission proceed in virtual time. Send never
// blocks: use SendWait from application threads that should experience
// socket-buffer backpressure.
func (c *StreamConn) Send(m *Message) {
	if c.closed {
		return
	}
	size := m.WireSize()
	count := (size + maxPayload - 1) / maxPayload
	if count == 0 {
		count = 1
	}
	for i := 0; i < count; i++ {
		chunk := maxPayload
		if i == count-1 {
			chunk = size - maxPayload*(count-1)
		}
		seg := &segment{
			seq:  c.nextSeq,
			last: i == count-1,
			msg:  m,
			size: chunk,
		}
		c.nextSeq++
		c.buffered += chunk
		c.backlog.Push(seg)
	}
	c.pump()
}

// SendWait behaves like a blocking socket write: when the send buffer
// (unacknowledged plus queued bytes) is full, the calling process blocks
// until acknowledgments free space. This bounds latency under congestion
// the way kernel socket buffers do — senders are paced, not allowed to
// queue unboundedly.
func (c *StreamConn) SendWait(p *sim.Proc, m *Message) {
	for !c.closed && c.buffered >= c.bufferLimit {
		c.space.Wait(p)
	}
	c.Send(m)
}

// Recv blocks until the next in-order message is delivered.
func (c *StreamConn) Recv(p *sim.Proc) *Message {
	return c.recvQ.Get(p)
}

// RecvTimeout blocks for at most d.
func (c *StreamConn) RecvTimeout(p *sim.Proc, d time.Duration) (*Message, bool) {
	return c.recvQ.GetTimeout(p, d)
}

// pump moves backlog segments into the window and transmits them.
func (c *StreamConn) pump() {
	for c.backlog.Len() > 0 && c.outstanding.Len() < streamWindow {
		seg := c.backlog.Pop()
		c.outstanding.Push(seg)
		c.transmit(seg)
	}
	c.armTimer()
}

func (c *StreamConn) transmit(seg *segment) {
	seg.ack = c.expected
	c.ep.node.Send(netsim.Packet{
		Src:     c.LocalAddr(),
		Dst:     c.remote,
		Size:    seg.size + headerBytes,
		DSCP:    c.dscp,
		Flow:    c.flow,
		Ctx:     seg.msg.Ctx,
		Payload: seg,
	})
}

func (c *StreamConn) sendAck() {
	c.ep.node.Send(netsim.Packet{
		Src:     c.LocalAddr(),
		Dst:     c.remote,
		Size:    ackSize,
		DSCP:    c.dscp,
		Flow:    c.flow,
		Payload: &segment{isAck: true, ack: c.expected},
	})
}

func (c *StreamConn) armTimer() {
	if c.rtoTimer != (sim.Event{}) || c.outstanding.Len() == 0 || c.closed {
		return
	}
	c.rtoTimer = c.ep.Kernel().After(c.rto, c.onRTO)
}

func (c *StreamConn) onTimeout() {
	c.rtoTimer = sim.Event{}
	if c.closed || c.outstanding.Len() == 0 {
		return
	}
	// Retransmit only the window head: the receiver buffers
	// out-of-order segments, so filling the gap releases everything
	// behind it (selective-repeat behaviour, as SACK-era TCP achieves).
	c.retransmits++
	c.transmit(c.outstanding.At(0))
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.armTimer()
}

func (c *StreamConn) onSegment(seg *segment) {
	if c.closed {
		return
	}
	// Process the (possibly piggybacked) acknowledgment.
	switch {
	case seg.ack > c.base:
		c.base = seg.ack
		c.dupAcks = 0
		for c.outstanding.Len() > 0 && c.outstanding.At(0).seq < c.base {
			c.buffered -= c.outstanding.Pop().size
		}
		c.rto = initialRTO
		c.rtoTimer.Cancel()
		c.rtoTimer = sim.Event{}
		c.pump()
		c.space.Broadcast()
	case seg.ack == c.base && c.outstanding.Len() > 0:
		// Duplicate cumulative ack: the receiver is seeing out-of-order
		// segments, so the head of the window was lost. After three
		// duplicates, fast-retransmit it without waiting for the RTO.
		c.dupAcks++
		if c.dupAcks >= 3 {
			c.dupAcks = 0
			c.retransmits++
			c.transmit(c.outstanding.At(0))
		}
	}
	if seg.isAck {
		return
	}
	// In-order data advances the receive window, draining any buffered
	// out-of-order successors; data beyond the expected sequence is
	// buffered for later (selective repeat).
	switch {
	case seg.seq == c.expected:
		c.deliverSegment(seg)
		for {
			next, ok := c.recvBuf[c.expected]
			if !ok {
				break
			}
			delete(c.recvBuf, c.expected)
			c.deliverSegment(next)
		}
	case seg.seq > c.expected && len(c.recvBuf) < recvBufLimit:
		c.recvBuf[seg.seq] = seg
	}
	c.sendAck()
}

// deliverSegment consumes one in-order segment, surfacing its message
// when the final segment arrives.
func (c *StreamConn) deliverSegment(seg *segment) {
	c.expected++
	if seg.last {
		out := *seg.msg
		out.From = c.remote
		c.recvQ.Put(&out)
	}
}
