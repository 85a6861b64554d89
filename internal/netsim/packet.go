package netsim

import (
	"fmt"
	"math"
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

// ECN is the 2-bit explicit congestion notification field that shares
// the IP header's DiffServ byte with the 6-bit DSCP, as the paper
// describes. ECN-capable packets are marked rather than dropped by
// active queue management.
type ECN uint8

// ECN codepoints (RFC 3168).
const (
	// ECNNotCapable marks a flow that must be dropped on congestion.
	ECNNotCapable ECN = 0
	// ECNCapable marks a flow whose endpoints understand CE marks.
	ECNCapable ECN = 1
	// ECNCongestionExperienced is set by a router instead of dropping.
	ECNCongestionExperienced ECN = 3
)

func (e ECN) String() string {
	switch e {
	case ECNNotCapable:
		return "Not-ECT"
	case ECNCapable:
		return "ECT"
	case ECNCongestionExperienced:
		return "CE"
	default:
		return fmt.Sprintf("ECN(%d)", uint8(e))
	}
}

// MTU is the maximum transmission unit used by the transports when
// fragmenting application messages, matching Ethernet.
const MTU = 1500

// Packet is one network datagram.
type Packet struct {
	Src, Dst Addr
	Size     int // bytes on the wire, headers included
	DSCP     DSCP
	ECN      ECN
	Flow     FlowID
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

	hopSpan *trace.Span   // open span for the hop currently in transit
	pool    *CrossTraffic // set on a cross-traffic source's packets: their sink recycles them
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
	// Marked counts packets that received a congestion-experienced ECN
	// mark instead of being dropped.
	Marked      int64
	DropReasons map[DropReason]int64

	latSum   time.Duration
	latSqSum float64 // sum of squared latencies in seconds^2
	latMin   time.Duration
	latMax   time.Duration
}

func (s *FlowStats) recordLatency(d time.Duration) {
	if s.Delivered == 1 || d < s.latMin {
		s.latMin = d
	}
	if d > s.latMax {
		s.latMax = d
	}
	s.latSum += d
	sec := d.Seconds()
	s.latSqSum += sec * sec
}

// LossRate returns dropped/sent, or 0 with no traffic.
func (s *FlowStats) LossRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(s.Sent)
}

// MeanLatency returns the average delivery latency.
func (s *FlowStats) MeanLatency() time.Duration {
	if s.Delivered == 0 {
		return 0
	}
	return s.latSum / time.Duration(s.Delivered)
}

// StdDevLatency returns the latency standard deviation.
func (s *FlowStats) StdDevLatency() time.Duration {
	if s.Delivered < 2 {
		return 0
	}
	n := float64(s.Delivered)
	mean := s.latSum.Seconds() / n
	variance := s.latSqSum/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return time.Duration(math.Sqrt(variance) * float64(time.Second))
}

// MinLatency returns the smallest observed delivery latency.
func (s *FlowStats) MinLatency() time.Duration { return s.latMin }

// MaxLatency returns the largest observed delivery latency.
func (s *FlowStats) MaxLatency() time.Duration { return s.latMax }

func (n *Network) flowStats(f FlowID) *FlowStats {
	st, ok := n.stats[f]
	if !ok {
		st = &FlowStats{DropReasons: make(map[DropReason]int64)}
		n.stats[f] = st
	}
	return st
}

// FlowStats returns the statistics record for flow f, creating it if
// needed so callers can read counters before traffic starts.
func (n *Network) FlowStats(f FlowID) *FlowStats { return n.flowStats(f) }

// countDrop ends p's life with reason: the flow's counters, the KindDrop
// record when a bus is attached, the trace, and p's return to its pool.
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
	if p.pool != nil {
		// Every caller returns right after counting the drop.
		p.pool.free = append(p.pool.free, p)
	}
}
