package transport

import (
	"math/rand"
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

	recvQ *sim.Queue[*Message]
	reasm map[reasmKey]*reasmBuf

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

type fragment struct {
	msgID   uint64
	idx     int
	count   int
	payload *Message
}

// CorruptCopy implements netsim.Corrupter. Fragments carrying real bytes
// are delivered with one bit flipped in a copied payload; fragments of
// simulated objects (video frames, whose integrity a real receiver
// checks) are destroyed instead (nil).
func (f *fragment) CorruptCopy(r *rand.Rand) any {
	if f.payload == nil || len(f.payload.Data) == 0 {
		return nil
	}
	msg := *f.payload
	msg.Data = append([]byte(nil), f.payload.Data...)
	bit := r.Intn(len(msg.Data) * 8)
	msg.Data[bit/8] ^= 1 << (bit % 8)
	cp := *f
	cp.payload = &msg
	return &cp
}

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
		recvQ:             sim.NewQueue[*Message](),
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

// Send transmits a message to dst, fragmenting as needed.
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
			Payload:  &fragment{msgID: c.msgID, idx: i, count: count, payload: m},
		})
	}
}

// Recv blocks the calling process until a complete message arrives.
func (c *DgramConn) Recv(p *sim.Proc) *Message {
	return c.recvQ.Get(p)
}

func (c *DgramConn) onPacket(p *netsim.Packet) {
	frag, ok := p.Payload.(*fragment)
	if !ok {
		return
	}
	// A malformed header (e.g. hit by injected corruption) must be
	// ignored, not indexed with.
	if frag.count <= 0 || frag.idx < 0 || frag.idx >= frag.count {
		return
	}
	now := c.ep.Kernel().Now()
	c.expireReassembly(now)
	if frag.count == 1 {
		c.deliver(p.Src, frag.payload)
		return
	}
	key := reasmKey{from: p.Src, msgID: frag.msgID}
	buf, ok := c.reasm[key]
	if !ok {
		if len(c.reasm) >= reasmLimit {
			return
		}
		buf = &reasmBuf{expected: frag.count, seen: make([]bool, frag.count), msg: frag.payload}
		c.reasm[key] = buf
	}
	// Fragments disagreeing with the train's shape, and duplicated
	// fragments, must not advance reassembly: a message completes only
	// when every distinct index has arrived.
	if frag.count != buf.expected || buf.seen[frag.idx] {
		return
	}
	buf.seen[frag.idx] = true
	buf.got++
	buf.deadline = now + c.ReassemblyTimeout
	if buf.got >= buf.expected {
		delete(c.reasm, key)
		c.deliver(p.Src, buf.msg)
	}
}

func (c *DgramConn) deliver(from netsim.Addr, m *Message) {
	out := *m
	out.From = from
	c.recvMsgs++
	c.recvQ.Put(&out)
}

func (c *DgramConn) expireReassembly(now sim.Time) {
	for key, buf := range c.reasm {
		if now > buf.deadline {
			delete(c.reasm, key)
		}
	}
}
