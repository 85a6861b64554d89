package avstreams

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
)

// Distributor is the middle stage of the paper's Figure 3 pipelines: it
// receives a video stream on one port and relays every frame to multiple
// downstream receivers, each over its own Stream with its own QoS
// (filter level, DSCP, reservation). This is where per-consumer
// bandwidth management happens — a human display can take 30 fps over a
// reserved path while an ATR process on a congested path gets I-frames
// only.
// relayItem is one queued frame together with its inbound trace
// context, so downstream legs join the same trace.
type relayItem struct {
	frame video.Frame
	ctx   trace.SpanContext
}

type Distributor struct {
	svc      *Service
	receiver *Receiver
	queue    *sim.Queue[relayItem]
	branches []*Stream
	thread   *rtos.Thread

	// ch, when non-nil, routes the fan-out through a pub/sub channel
	// (NewChannelDistributor): each branch is a subscriber and the relay
	// thread publishes then pumps, so delivery order and timing match
	// the direct path while gaining the channel's introspection.
	ch          *pubsub.Channel
	relayThread *rtos.Thread
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
	d.thread = s.host.Spawn(fmt.Sprintf("distributor-%d", inPort), prio, d.relay)
	return d
}

// NewChannelDistributor is NewDistributor with the fan-out routed
// through a pubsub.Channel on the kernel clock: every inbound frame is
// published as an event (Val carries the frame and its trace context)
// and each branch is a subscriber delivered synchronously by the relay
// thread's pump. The direct path stays available via NewDistributor;
// the channel path adds per-branch delivery counters and a live
// snapshot without changing what reaches the receivers.
func (s *Service) NewChannelDistributor(inPort uint16, prio rtos.Priority) *Distributor {
	d := &Distributor{
		svc:   s,
		queue: sim.NewQueue[relayItem](),
	}
	d.ch = pubsub.New(pubsub.ChannelConfig{
		Name:  fmt.Sprintf("av-%d", inPort),
		Clock: s.host.Kernel(),
	})
	d.receiver = s.CreateReceiver(inPort, prio, nil)
	d.receiver.ctxHandler = func(f video.Frame, sentAt, recvAt sim.Time, ctx trace.SpanContext) {
		d.queue.Put(relayItem{frame: f, ctx: ctx})
	}
	d.thread = s.host.Spawn(fmt.Sprintf("distributor-%d", inPort), prio, d.relayChannel)
	return d
}

// Channel returns the fan-out channel (nil for a direct distributor).
func (d *Distributor) Channel() *pubsub.Channel { return d.ch }

// InAddr returns the address upstream senders should bind to.
func (d *Distributor) InAddr() netsim.Addr { return d.receiver.Addr() }

// Branches returns the downstream streams.
func (d *Distributor) Branches() []*Stream { return d.branches }

// AddBranch binds a new downstream stream from outPort to dst with the
// given QoS and attaches it to the fan-out. It must run on a simulation
// process (reservation signalling may block).
func (d *Distributor) AddBranch(p *sim.Proc, outPort uint16, dst netsim.Addr, qos QoS) (*Stream, error) {
	sender := d.svc.CreateSender(outPort)
	st, err := sender.Bind(p, dst, qos)
	if err != nil {
		return nil, fmt.Errorf("avstreams: distributor branch to %v: %w", dst, err)
	}
	if d.ch != nil {
		_, err := d.ch.Subscribe(pubsub.SubscriberConfig{
			Name: fmt.Sprintf("branch-%d", outPort),
			Deliver: func(ev pubsub.Event) {
				it := ev.Val.(relayItem)
				st.sendFrame(d.relayThread, it.frame, it.ctx)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("avstreams: distributor branch to %v: %w", dst, err)
		}
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

// relayChannel is the channel-backed relay: publish the frame, then
// pump every subscriber on this thread so branch sends keep the relay
// thread's priority and simulated CPU accounting.
func (d *Distributor) relayChannel(t *rtos.Thread) {
	for {
		it := d.queue.Get(t.Proc())
		d.relayThread = t
		_ = d.ch.Publish(pubsub.Event{Topic: "av/frames", Val: it})
		d.ch.PumpAll()
	}
}
