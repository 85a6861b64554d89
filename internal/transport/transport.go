// Package transport provides endpoint abstractions over the simulated
// network: unreliable datagram messaging with fragmentation/reassembly
// (used by the A/V streaming data paths, where a lost fragment loses the
// frame) and a reliable, in-order message stream with go-back-N
// retransmission (used by the GIOP protocol engine, where congestion
// manifests as retransmission latency rather than loss — the source of
// the second-long latency spikes in the paper's Figure 4).
package transport

import (
	"fmt"
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Endpoint is a messaging attachment point on a network node.
type Endpoint struct {
	net  *netsim.Network
	node *netsim.Node
}

// NewEndpoint attaches to node.
func NewEndpoint(net *netsim.Network, node *netsim.Node) *Endpoint {
	return &Endpoint{net: net, node: node}
}

// Node returns the underlying network node.
func (e *Endpoint) Node() *netsim.Node { return e.node }

// Kernel returns the simulation kernel.
func (e *Endpoint) Kernel() *sim.Kernel { return e.net.Kernel() }

// Frame returns an empty buffer, from the network's free list of
// frames, to encode an outgoing message into (nil when the list is
// empty). The stream hands the receiver the sender's own bytes, so the
// frame is the receiver's once the message is delivered: the sender
// never reads it again, bar a go-back-N copy of an already delivered
// segment, which is never delivered a second time.
func (e *Endpoint) Frame() []byte { return e.net.Frame() }

// ReleaseFrame gives the frame of a received message back to the
// network's free list once nothing refers to it.
func (e *Endpoint) ReleaseFrame(frame []byte) { e.net.ReleaseFrame(frame) }

// Addr returns the address of a port on this endpoint.
func (e *Endpoint) Addr(port uint16) netsim.Addr { return e.node.Addr(port) }

// Message is an application message moving through a transport. Either
// Data holds real bytes (GIOP messages) or Payload holds a simulated
// object whose wire size is Size (video frames).
type Message struct {
	From    netsim.Addr
	Data    []byte
	Payload any
	Size    int
	// Deadline, when non-zero, is the absolute virtual time after which
	// the message is worthless. Datagram sends stamp it onto every
	// fragment so the network sheds expired packets in transit; the
	// reliable stream ignores it (dropping a stream segment would only
	// trigger a retransmission of the same late data).
	Deadline sim.Time
	// Ctx, when valid, is the trace span this message belongs to; the
	// transports copy it onto every packet so the network layer can
	// record per-hop transit spans under the right parent.
	Ctx trace.SpanContext
}

// WireSize returns the message's size on the wire.
func (m *Message) WireSize() int {
	if m.Data != nil {
		return len(m.Data)
	}
	return m.Size
}

func (m *Message) String() string {
	return fmt.Sprintf("msg(from=%v %dB)", m.From, m.WireSize())
}

// CorruptCopy implements netsim.Corrupter for the segments and fragments
// that carry m (their headers are checksummed, so never hit): one bit
// flips in a copy of m's bytes, as m may still await retransmission. A
// byteless message (a simulated object, such as a video frame, whose
// integrity a real receiver checks) is destroyed instead (nil), as is a
// pure ack, which carries none. A copy of a delivered message's segment
// may read bytes the receiver has since released and reused
// (Endpoint.ReleaseFrame), but it is behind the receiver's sequence, so
// it is never delivered.
func (m *Message) CorruptCopy(r *rand.Rand) any {
	if len(m.Data) == 0 {
		return nil
	}
	cp := *m
	cp.Data = append([]byte(nil), m.Data...)
	bit := r.Intn(len(cp.Data) * 8)
	cp.Data[bit/8] ^= 1 << (bit % 8)
	return &cp
}

// Protocol ids and flags in netsim.Header. A packet with another
// protocol's id, or a payload its flags deny, is ignored.
const (
	protoStream = 1 + iota
	protoDgram

	flagAck  = 1 << 0 // stream: a pure ack, no payload
	flagLast = 1 << 1 // stream: the final segment of its message
)

// headerBytes is the per-packet overhead added by the simulated
// IP/UDP-like encapsulation.
const headerBytes = 40

// maxPayload is the usable bytes per packet after headers.
const maxPayload = netsim.MTU - headerBytes
