package netsim

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DSCP is the Differentiated Services codepoint carried in the 6-bit
// DiffServ field of each packet's IP header. Routers classify packets
// into per-hop behaviours by codepoint.
type DSCP uint8

// Standard codepoints used in the experiments.
const (
	// DSCPBestEffort is the default PHB: FIFO (or fair-queued) service
	// with no protection under congestion.
	DSCPBestEffort DSCP = 0
	// DSCPAF11 .. DSCPAF41 are assured-forwarding class representatives.
	DSCPAF11 DSCP = 10
	DSCPAF21 DSCP = 18
	DSCPAF31 DSCP = 26
	DSCPAF41 DSCP = 34
	// DSCPEF is expedited forwarding — the low-latency PHB the paper
	// marks prioritised video streams with.
	DSCPEF DSCP = 46
	// DSCPCS6 is class-selector 6, used for control/signalling traffic
	// (the RSVP messages).
	DSCPCS6 DSCP = 48
)

func (d DSCP) String() string {
	switch d {
	case DSCPBestEffort:
		return "BE"
	case DSCPEF:
		return "EF"
	case DSCPCS6:
		return "CS6"
	case DSCPAF11:
		return "AF11"
	case DSCPAF21:
		return "AF21"
	case DSCPAF31:
		return "AF31"
	case DSCPAF41:
		return "AF41"
	default:
		return fmt.Sprintf("DSCP(%d)", uint8(d))
	}
}

// MTU is the maximum transmission unit used by the transports when
// fragmenting application messages, matching Ethernet.
const MTU = 1500

// Header is a transport's per-packet header, carried by value so that a
// segment, an ack or a fragment costs no record. The network never reads
// it. A stream segment uses Seq and Ack, a datagram fragment Seq (its
// message's id), Idx and Count.
type Header struct {
	Seq, Ack     uint64
	Idx, Count   int32
	Proto, Flags uint8 // the owning transport (zero for none) and its flags
}

// Packet is one network datagram. The network owns every packet in
// flight and recycles it through its free list: a packet handed to a
// port handler is valid only until the handler returns, and a dropped
// one dies in countDrop. A handler that needs a packet's fields later
// copies them (or the payload, which the network never recycles).
type Packet struct {
	Src, Dst Addr
	Size     int // bytes on the wire, headers included
	DSCP     DSCP
	Flow     FlowID
	Hdr      Header
	Payload  any
	Sent     sim.Time // stamped by Node.Send
	TTL      int
	// Deadline, when non-zero, is the absolute virtual time after which
	// the packet's payload is worthless. Links and nodes shed expired
	// packets (DropDeadline) instead of spending bandwidth and queue
	// space delivering them late — the network half of end-to-end
	// deadline propagation.
	Deadline sim.Time
	// Ctx is the trace span this packet's message belongs to. When the
	// network has a tracer installed, each link records a per-hop
	// transit span under it.
	Ctx trace.SpanContext

	hopSpan *trace.Span // open span for the hop currently in transit
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt(%v->%v %dB %v flow=%d)", p.Src, p.Dst, p.Size, p.DSCP, p.Flow)
}

// DropReason classifies packet loss for diagnostics.
type DropReason int

const (
	// DropQueue means an egress queue overflowed (congestion loss).
	DropQueue DropReason = iota + 1
	// DropNoPort means the destination port had no listener.
	DropNoPort
	// DropTTL means the hop limit expired.
	DropTTL
	// DropUnreachable means no route existed to the destination.
	DropUnreachable
	// DropLoss means injected link loss destroyed the packet.
	DropLoss
	// DropNodeDown means the packet reached (or originated at) a node
	// taken down by crash fault injection.
	DropNodeDown
	// DropTransitDown means the destination node crash-stopped while the
	// packet was in flight on its final hop: even if the node has since
	// been revived, pre-crash bytes must not materialise on it.
	DropTransitDown
	// DropDeadline means the packet's end-to-end deadline expired in
	// transit and it was shed rather than delivered late.
	DropDeadline
	// DropCorrupt means injected byte corruption hit a payload whose
	// integrity check would catch it (a checksummed header or an opaque
	// simulated object), destroying the packet.
	DropCorrupt
)

func (r DropReason) String() string {
	switch r {
	case DropQueue:
		return "queue-overflow"
	case DropNoPort:
		return "no-port"
	case DropTTL:
		return "ttl"
	case DropUnreachable:
		return "unreachable"
	case DropLoss:
		return "link-loss"
	case DropNodeDown:
		return "node-down"
	case DropTransitDown:
		return "transit-node-down"
	case DropDeadline:
		return "deadline"
	case DropCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// FlowStats accumulates per-flow delivery statistics.
type FlowStats struct {
	Sent           int64
	SentBytes      int64
	Delivered      int64
	DeliveredBytes int64
	Dropped        int64
	DropReasons    map[DropReason]int64

	latSum time.Duration // sum of delivery latencies
}

// LossRate returns dropped/sent, or 0 with no traffic.
func (s *FlowStats) LossRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Sent)
}

func (n *Network) flowStats(f FlowID) *FlowStats {
	n.stats = atFlow(n.stats, f)
	st := n.stats[f]
	if st == nil {
		st = &FlowStats{DropReasons: make(map[DropReason]int64)}
		n.stats[f] = st
	}
	return st
}

// atFlow returns s extended, if need be, so that f indexes it. Flow ids
// are dense — Network.NewFlowID counts up from 1 — so per-flow tables
// on the per-packet path are slices indexed by id, not maps.
func atFlow[T any](s []T, f FlowID) []T {
	if int(f) < len(s) {
		return s
	}
	return append(s, make([]T, int(f)+1-len(s))...)
}

// FlowStats returns the statistics record for flow f, creating it if
// needed so callers can read counters before traffic starts.
func (n *Network) FlowStats(f FlowID) *FlowStats { return n.flowStats(f) }

// countDrop ends p's life with reason: the flow's counters, the KindDrop
// record when a bus is attached, the trace, and p's return to the free
// list. Every caller returns right after counting the drop.
func (n *Network) countDrop(p *Packet, reason DropReason) {
	st := n.flowStats(p.Flow)
	st.Dropped++
	st.DropReasons[reason]++
	if n.bus != nil {
		n.bus.Publish(events.KindDrop, "net",
			events.F("reason", reason.String()),
			events.F("dst", p.Dst.String()),
			events.F("flow", strconv.FormatUint(uint64(p.Flow), 10)))
	}
	if p.hopSpan != nil {
		p.hopSpan.Event("drop", trace.String("reason", reason.String()))
		p.hopSpan.Finish()
		p.hopSpan = nil
	} else if n.tracer != nil && p.Ctx.Valid() {
		// Drops at a node (no route, dead port, TTL) happen outside any
		// hop span; record them as a zero-length span so the trace still
		// shows where the packet died.
		s := n.tracer.StartChild(p.Ctx, "drop", "netsim")
		s.SetAttr(trace.String("reason", reason.String()))
		s.Finish()
	}
	n.recycle(p)
}
