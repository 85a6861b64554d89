package netsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// RSVP (RFC 2205) style signalling: a PATH message travels from sender to
// receiver pinning the route, and a RESV message returns along the
// reverse path installing a guaranteed-rate reservation at each hop's
// egress queue, subject to per-link admission control. Signalling
// messages are real packets (64 bytes, DSCP CS6) transiting the same
// links as data, so setup latency and loss behave like the real protocol.

// Errors returned by ReserveFlow.
var (
	// ErrLinkAdmission means a hop had insufficient unreserved capacity.
	ErrLinkAdmission = errors.New("netsim: reservation rejected by link admission control")
	// ErrNotCapable means a hop's egress queue cannot host reservations.
	ErrNotCapable = errors.New("netsim: link queue does not support reservations")
	// ErrSignalling means the PATH/RESV exchange did not complete.
	ErrSignalling = errors.New("netsim: reservation signalling timed out")
	// ErrUnreachable means no route exists between the endpoints.
	ErrUnreachable = errors.New("netsim: no route between reservation endpoints")
)

const (
	rsvpPort    = 1
	rsvpMsgSize = 64
	// LinkReservationCap is the fraction of a link's bandwidth RSVP may
	// promise to reservations, leaving headroom for control traffic.
	LinkReservationCap = 0.9
)

type rsvpKind int

const (
	kindPath rsvpKind = iota + 1
	kindResv
	kindResvErr
	kindTear
)

type rsvpMsg struct {
	kind  rsvpKind
	reqID uint64
	spec  ReservationSpec
	links []*Link // forward data path, recorded by PATH
	idx   int     // cursor into links for RESV/TEAR processing
	err   error
}

// ReservationSpec describes a requested flow reservation.
type ReservationSpec struct {
	Flow FlowID
	Src  *Node
	Dst  *Node
	// RateBps is the guaranteed rate in bits per second.
	RateBps float64
	// BurstBytes is the token-bucket depth. Defaults to 8 KiB.
	BurstBytes int
	// QueueBytes is the per-hop flow queue limit. Defaults to 4x burst.
	QueueBytes int
}

func (s *ReservationSpec) defaults() {
	if s.BurstBytes == 0 {
		s.BurstBytes = 8 * 1024
	}
	if s.QueueBytes == 0 {
		s.QueueBytes = 4 * s.BurstBytes
	}
}

// Reservation is an installed end-to-end bandwidth reservation. Its
// per-hop state is hard: it persists until Release tears it down.
type Reservation struct {
	spec   ReservationSpec
	links  []*Link
	active bool
}

// Release tears the reservation down along the path. The teardown message
// propagates asynchronously; per-hop state is removed as it arrives.
func (r *Reservation) Release() {
	if !r.active {
		return
	}
	r.active = false
	agent := r.spec.Src.rsvp
	msg := &rsvpMsg{kind: kindTear, spec: r.spec, links: r.links, idx: 0}
	agent.process(msg)
}

// rsvpAgent is the per-node RSVP daemon.
type rsvpAgent struct {
	node    *Node
	pending map[uint64]*pendingResv
	seq     uint64
}

type pendingResv struct {
	sig  *sim.Signal
	done bool
	err  error
	resv *Reservation
}

func newRSVPAgent(nd *Node) *rsvpAgent {
	return &rsvpAgent{
		node:    nd,
		pending: make(map[uint64]*pendingResv),
	}
}

// ReserveFlow performs RSVP signalling from spec.Src to spec.Dst and
// blocks the calling process until the reservation is confirmed or
// refused. It must be called from a simulation process.
func (n *Network) ReserveFlow(p *sim.Proc, spec ReservationSpec) (*Reservation, error) {
	return n.ReserveFlowTimeout(p, spec, 5*time.Second)
}

// ReserveFlowTimeout is ReserveFlow with an explicit signalling timeout.
func (n *Network) ReserveFlowTimeout(p *sim.Proc, spec ReservationSpec, timeout time.Duration) (*Reservation, error) {
	spec.defaults()
	if spec.Src == nil || spec.Dst == nil || spec.RateBps <= 0 {
		return nil, fmt.Errorf("netsim: invalid reservation spec %+v", spec)
	}
	if n.Route(spec.Src.id, spec.Dst.id) == nil {
		return nil, ErrUnreachable
	}
	agent := spec.Src.rsvp
	agent.seq++
	reqID := agent.seq
	pend := &pendingResv{sig: sim.NewSignal()}
	agent.pending[reqID] = pend
	defer delete(agent.pending, reqID)

	msg := &rsvpMsg{kind: kindPath, reqID: reqID, spec: spec}
	agent.process(msg)

	if !pend.done {
		if !pend.sig.WaitTimeout(p, timeout) {
			return nil, ErrSignalling
		}
	}
	if pend.err != nil {
		return nil, pend.err
	}
	return pend.resv, nil
}

// process runs the per-hop RSVP state machine. It is called both for
// locally originated messages and for arriving control packets.
func (a *rsvpAgent) process(msg *rsvpMsg) {
	nd := a.node
	switch msg.kind {
	case kindPath:
		if nd == msg.spec.Dst {
			// Receiver: answer with RESV along the reverse path,
			// starting at the last recorded link's owner.
			resv := &rsvpMsg{
				kind:  kindResv,
				reqID: msg.reqID,
				spec:  msg.spec,
				links: msg.links,
				idx:   len(msg.links) - 1,
			}
			a.sendTo(msg.links[resv.idx].from, resv)
			return
		}
		l := nd.net.egressToward(nd, msg.spec.Dst)
		if l == nil {
			a.fail(msg, ErrUnreachable)
			return
		}
		if _, ok := l.q.(ReservationCapable); !ok {
			a.fail(msg, fmt.Errorf("%w: %v", ErrNotCapable, l))
			return
		}
		msg.links = append(msg.links, l)
		a.forwardOn(l, msg)

	case kindResv:
		l := msg.links[msg.idx]
		if l.from != nd {
			panic("netsim: RESV delivered to wrong hop")
		}
		if err := l.installReservation(msg.spec); err != nil {
			// Tear down hops already installed (closer to the receiver)
			// and report the failure to the sender.
			tear := &rsvpMsg{kind: kindTear, spec: msg.spec, links: msg.links, idx: msg.idx + 1}
			if tear.idx < len(tear.links) {
				a.sendTo(tear.links[tear.idx].from, tear)
			}
			a.fail(msg, err)
			return
		}
		if msg.idx == 0 {
			// Sender-side hop: the reservation is complete.
			a.complete(msg, nil)
			return
		}
		msg.idx--
		a.sendTo(msg.links[msg.idx].from, msg)

	case kindResvErr:
		if nd == msg.spec.Src {
			a.complete(msg, msg.err)
			return
		}
		// Keep walking toward the sender.
		a.sendTo(msg.spec.Src, msg)

	case kindTear:
		l := msg.links[msg.idx]
		if l.from == nd {
			l.removeReservation(msg.spec)
			msg.idx++
		}
		if msg.idx < len(msg.links) {
			a.sendTo(msg.links[msg.idx].from, msg)
		}
	}
}

// fail reports a signalling failure back to the sender.
func (a *rsvpAgent) fail(msg *rsvpMsg, err error) {
	errMsg := &rsvpMsg{kind: kindResvErr, reqID: msg.reqID, spec: msg.spec, err: err}
	if a.node == msg.spec.Src {
		a.complete(errMsg, err)
		return
	}
	a.sendTo(msg.spec.Src, errMsg)
}

// complete resolves the pending request on the sender.
func (a *rsvpAgent) complete(msg *rsvpMsg, err error) {
	pend, ok := a.pending[msg.reqID]
	if !ok || pend.done {
		return
	}
	pend.done = true
	pend.err = err
	if err == nil {
		pend.resv = &Reservation{spec: msg.spec, links: msg.links, active: true}
	}
	pend.sig.Broadcast()
}

// sendTo transmits an RSVP message one or more hops toward target using
// normal routing; intermediate agents intercept and re-process it.
func (a *rsvpAgent) sendTo(target *Node, msg *rsvpMsg) {
	if target == a.node {
		a.process(msg)
		return
	}
	l := a.node.net.egressToward(a.node, target)
	if l == nil {
		// The requester will time out; nothing better to do.
		return
	}
	a.forwardOn(l, msg)
}

// forwardOn transmits an RSVP message over a specific link.
func (a *rsvpAgent) forwardOn(l *Link, msg *rsvpMsg) {
	p := a.node.net.packet()
	*p = Packet{
		Src:     a.node.Addr(rsvpPort),
		Dst:     l.to.Addr(rsvpPort),
		Size:    rsvpMsgSize,
		DSCP:    DSCPCS6,
		Payload: msg,
		Sent:    a.node.net.k.Now(),
		TTL:     64,
	}
	l.enqueue(p)
}

// egressToward returns the next-hop link from nd toward dst.
func (n *Network) egressToward(nd *Node, dst *Node) *Link {
	if n.dirty {
		n.computeRoutes()
	}
	return n.nextHop[nd.id][dst.id]
}

// installReservation admission-tests and installs per-flow state on l.
func (l *Link) installReservation(spec ReservationSpec) error {
	rc, ok := l.q.(ReservationCapable)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotCapable, l)
	}
	if rc.ReservedRate()+spec.RateBps > LinkReservationCap*l.bps {
		return fmt.Errorf("%w: %v has %.0f of %.0f bps reserved, requested %.0f",
			ErrLinkAdmission, l, rc.ReservedRate(), LinkReservationCap*l.bps, spec.RateBps)
	}
	rc.InstallFlow(spec.Flow, spec.RateBps, spec.BurstBytes, spec.QueueBytes, l.net.k.Now())
	return nil
}

func (l *Link) removeReservation(spec ReservationSpec) {
	if rc, ok := l.q.(ReservationCapable); ok {
		rc.RemoveFlow(spec.Flow)
	}
}
