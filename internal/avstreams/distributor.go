package avstreams

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
)

// relayItem is one queued frame together with its inbound trace
// context, so downstream legs join the same trace.
type relayItem struct {
	frame video.Frame
	ctx   trace.SpanContext
}

// Distributor is the middle stage of the paper's Figure 3 pipelines: it
// receives a video stream on one port and relays every frame to multiple
// downstream receivers, each over its own Stream with its own QoS
// (filter level, DSCP, reservation). This is where per-consumer
// bandwidth management happens — a human display can take 30 fps over a
// reserved path while an ATR process on a congested path gets I-frames
// only.
type Distributor struct {
	svc      *Service
	receiver *Receiver
	queue    *sim.Queue[relayItem]
	branches []*Stream
}

// NewDistributor creates a distributor listening on inPort with a relay
// thread at prio. Branches are added with AddBranch before or after
// frames start flowing.
func (s *Service) NewDistributor(inPort uint16, prio rtos.Priority) *Distributor {
	d := &Distributor{
		svc:   s,
		queue: sim.NewQueue[relayItem](),
	}
	d.receiver = s.CreateReceiver(inPort, prio, nil)
	d.receiver.ctxHandler = func(f video.Frame, sentAt, recvAt sim.Time, ctx trace.SpanContext) {
		d.queue.Put(relayItem{frame: f, ctx: ctx})
	}
	s.host.Spawn(fmt.Sprintf("distributor-%d", inPort), prio, d.relay)
	return d
}

// InAddr returns the address upstream senders should bind to.
func (d *Distributor) InAddr() netsim.Addr { return d.receiver.Addr() }

// AddBranch binds a new downstream stream from outPort to dst with the
// given QoS and attaches it to the fan-out. It must run on a simulation
// process (reservation signalling may block).
func (d *Distributor) AddBranch(p *sim.Proc, outPort uint16, dst netsim.Addr, qos QoS) (*Stream, error) {
	sender := d.svc.CreateSender(outPort)
	st, err := sender.Bind(p, dst, qos)
	if err != nil {
		return nil, fmt.Errorf("avstreams: distributor branch to %v: %w", dst, err)
	}
	d.branches = append(d.branches, st)
	return st, nil
}

// relay forwards each inbound frame to every branch; each branch's
// filter decides independently whether the frame passes.
func (d *Distributor) relay(t *rtos.Thread) {
	for {
		it := d.queue.Get(t.Proc())
		for _, st := range d.branches {
			st.sendFrame(t, it.frame, it.ctx)
		}
	}
}
