package transport

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// DgramConn is an unreliable message socket. Messages larger than one MTU
// are fragmented; the receiver reassembles and delivers a message only if
// every fragment arrives, so one dropped packet loses the whole message —
// the behaviour that makes multi-packet video frames fragile under
// congestion.
type DgramConn struct {
	ep    *Endpoint
	port  uint16
	dscp  netsim.DSCP
	flow  netsim.FlowID
	msgID uint64

	recvQ *sim.Queue[Message]
	reasm map[reasmKey]*reasmBuf
	spare []*reasmBuf // finished reassembly buffers, ready for the next train

	// ReassemblyTimeout discards partial messages whose last fragment
	// has not arrived in time.
	ReassemblyTimeout time.Duration

	// Stats
	recvMsgs int64
}

type reasmKey struct {
	from  netsim.Addr
	msgID uint64
}

type reasmBuf struct {
	seen     []bool // per-fragment arrival bitmap: duplicates must not double-count
	got      int
	expected int
	msg      *Message
	deadline sim.Time
}

// reasmLimit bounds concurrently reassembling messages per socket, so a
// flood of never-completing fragment trains cannot grow state unboundedly.
const reasmLimit = 256

// OpenDgram binds a datagram socket on port. The flow id labels all
// traffic sent from this socket; pass 0 to allocate a fresh one.
func (e *Endpoint) OpenDgram(port uint16, flow netsim.FlowID) *DgramConn {
	if flow == 0 {
		flow = e.net.NewFlowID()
	}
	c := &DgramConn{
		ep:                e,
		port:              port,
		flow:              flow,
		recvQ:             sim.NewQueue[Message](),
		reasm:             make(map[reasmKey]*reasmBuf),
		ReassemblyTimeout: time.Second,
	}
	e.node.Bind(port, c.onPacket)
	return c
}

// Flow returns the socket's send flow id.
func (c *DgramConn) Flow() netsim.FlowID { return c.flow }

// LocalAddr returns the bound address.
func (c *DgramConn) LocalAddr() netsim.Addr { return c.ep.Addr(c.port) }

// SetDSCP sets the DiffServ codepoint applied to outgoing packets. This
// is the knob the RT-CORBA protocol properties and the QuO contracts
// adjust to mark a stream for expedited forwarding.
func (c *DgramConn) SetDSCP(d netsim.DSCP) { c.dscp = d }

// Send transmits a message to dst, fragmenting as needed. Every
// fragment's packet carries m itself, its place in m in its header.
func (c *DgramConn) Send(dst netsim.Addr, m *Message) {
	c.msgID++
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
		c.ep.node.Send(netsim.Packet{
			Src:      c.LocalAddr(),
			Dst:      dst,
			Size:     chunk + headerBytes,
			DSCP:     c.dscp,
			Flow:     c.flow,
			Deadline: m.Deadline,
			Ctx:      m.Ctx,
			Hdr:      netsim.Header{Proto: protoDgram, Seq: c.msgID, Idx: int32(i), Count: int32(count)},
			Payload:  m,
		})
	}
}

// Recv blocks the calling process until a complete message arrives.
func (c *DgramConn) Recv(p *sim.Proc) Message {
	return c.recvQ.Get(p)
}

func (c *DgramConn) onPacket(p *netsim.Packet) {
	h := p.Hdr
	msg, _ := p.Payload.(*Message)
	// Ignore, rather than index with, a malformed packet: another
	// protocol's, one with no message, or one whose index is out of range.
	if msg == nil || h.Proto != protoDgram || h.Count <= 0 || h.Idx < 0 || h.Idx >= h.Count {
		return
	}
	now := c.ep.Kernel().Now()
	c.expireReassembly(now)
	if h.Count == 1 {
		c.deliver(p.Src, msg)
		return
	}
	key := reasmKey{from: p.Src, msgID: h.Seq}
	buf, ok := c.reasm[key]
	if !ok {
		if len(c.reasm) >= reasmLimit {
			return
		}
		buf = c.startReasm(int(h.Count), msg)
		c.reasm[key] = buf
	}
	// Fragments disagreeing with the train's shape, and duplicated
	// fragments, must not advance reassembly: a message completes only
	// when every distinct index has arrived.
	if int(h.Count) != buf.expected || buf.seen[h.Idx] {
		return
	}
	buf.seen[h.Idx] = true
	buf.got++
	buf.deadline = now + c.ReassemblyTimeout
	if buf.got >= buf.expected {
		delete(c.reasm, key)
		c.deliver(p.Src, buf.msg)
		c.recycle(buf)
	}
}

// startReasm returns an empty buffer for a train of count fragments of
// msg, a recycled one when there is one.
func (c *DgramConn) startReasm(count int, msg *Message) *reasmBuf {
	var buf *reasmBuf
	if n := len(c.spare); n > 0 {
		buf, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		buf = new(reasmBuf)
	}
	if cap(buf.seen) < count {
		buf.seen = make([]bool, count)
	}
	buf.seen = buf.seen[:count]
	clear(buf.seen)
	buf.got, buf.expected, buf.msg = 0, count, msg
	return buf
}

// recycle keeps a finished buffer for the next train; it holds no
// message meanwhile. At most reasmLimit buffers are live, so at most
// that many are kept.
func (c *DgramConn) recycle(buf *reasmBuf) {
	buf.msg = nil
	c.spare = append(c.spare, buf)
}

func (c *DgramConn) deliver(from netsim.Addr, m *Message) {
	out := *m
	out.From = from
	c.recvMsgs++
	c.recvQ.Put(out)
}

func (c *DgramConn) expireReassembly(now sim.Time) {
	for key, buf := range c.reasm {
		if now > buf.deadline {
			delete(c.reasm, key)
			c.recycle(buf)
		}
	}
}
