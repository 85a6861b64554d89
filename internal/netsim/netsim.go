// Package netsim simulates an IP network with the QoS mechanisms the
// paper integrates: DiffServ packet prioritisation (DSCP codepoints
// classified into per-hop behaviours at each router) and IntServ/RSVP
// bandwidth reservations (PATH/RESV signalling installing per-flow
// guaranteed-rate state hop by hop).
//
// Hosts and routers are nodes; duplex connections are pairs of
// unidirectional links, each with a bandwidth, a propagation delay, and a
// queueing discipline at its egress. Latency, jitter and loss emerge from
// queueing mechanics exactly as on a real testbed: a congested best-effort
// queue delays and tail-drops packets, the DiffServ EF band preempts best
// effort, and reserved flows are isolated by token-bucket scheduling.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NodeID identifies a node in a Network.
type NodeID int

// Addr is a network endpoint: a node plus a port (like ip:port).
type Addr struct {
	Node NodeID
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Node, a.Port) }

// FlowID labels a traffic flow (the simulation's stand-in for the
// five-tuple). Flow-aware qdiscs (fair queueing, IntServ) key on it.
type FlowID uint64

// Handler consumes packets delivered to a bound port. The network
// recycles p when the handler returns.
type Handler func(p *Packet)

// Network is a simulated internetwork sharing one simulation kernel.
type Network struct {
	k       *sim.Kernel
	nodes   []*Node
	links   []*Link
	nextHop [][]*Link // [from][to] -> egress link, nil if unreachable
	dirty   bool      // topology changed since last route computation
	flowSeq uint64
	tracer  *trace.Tracer
	bus     *events.Bus

	stats  []*FlowStats // indexed by FlowID
	free   []*Packet    // delivered or dropped, ready to carry the next send
	frames [][]byte     // released message frames, ready for the next encode
}

// New creates an empty network on kernel k.
func New(k *sim.Kernel) *Network {
	return &Network{k: k}
}

// packet returns a zeroed packet from the free list, or a new one.
func (n *Network) packet() *Packet {
	if len(n.free) == 0 {
		return new(Packet)
	}
	p := n.free[len(n.free)-1]
	n.free = n.free[:len(n.free)-1]
	return p
}

// recycle ends p's life: it is zeroed, so it holds no payload, span or
// deadline of its last trip, and goes back on the free list.
func (n *Network) recycle(p *Packet) {
	*p = Packet{}
	n.free = append(n.free, p)
}

// Frame returns an empty buffer to encode a message into: the most
// recently released frame, with that frame's capacity, or nil when none
// is free (the encoder then allocates one). The network never reads a
// frame's bytes; it keeps released frames only so that a case's
// requests cycle through a few buffers instead of allocating one each
// (DESIGN §12 rule 1).
func (n *Network) Frame() []byte {
	last := len(n.frames) - 1
	if last < 0 {
		return nil
	}
	b := n.frames[last]
	n.frames[last] = nil
	n.frames = n.frames[:last]
	return b[:0]
}

// ReleaseFrame gives frame back for Frame to hand out again. Nothing may
// read or write its memory afterwards.
func (n *Network) ReleaseFrame(frame []byte) {
	if FrameReleaseHook != nil {
		FrameReleaseHook(frame[:cap(frame)])
	}
	n.frames = append(n.frames, frame[:0])
}

// FrameReleaseHook, when a test sets it, sees every frame as it goes
// back to a network's free list, before anything can reuse it.
var FrameReleaseHook func(frame []byte)

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// SetTracer enables per-hop transit spans for packets that carry a
// trace context. A nil tracer disables them.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tracer = tr }

// SetBus publishes every packet the network destroys as a KindDrop
// record sourced "net", carrying the classified reason, so network drops
// merge into the unified event timeline. A nil bus disables them.
func (n *Network) SetBus(b *events.Bus) { n.bus = b }

// NewFlowID allocates a fresh flow identifier.
func (n *Network) NewFlowID() FlowID {
	n.flowSeq++
	return FlowID(n.flowSeq)
}

// Node is a host or router attached to the network.
type Node struct {
	id            NodeID
	name          string
	net           *Network
	router        bool
	down          bool
	epoch         int // bumped on each crash; in-flight packets from an older epoch die on arrival
	out           []*Link
	ports         map[uint16]Handler
	rsvp          *rsvpAgent
	nextEphemeral uint16
}

// SetDown crash-stops (or revives) the node's network interface: while
// down, every packet it would originate, deliver, or forward is dropped
// with DropNodeDown. This is the network half of crash fault injection —
// a crashed host neither sends nor acknowledges anything. Each crash
// also advances the node's epoch, so packets already in flight towards
// the node when it went down are destroyed on arrival (DropTransitDown)
// even if the node has been revived by then: a reboot must not
// materialise pre-crash bytes.
func (nd *Node) SetDown(down bool) {
	if down {
		nd.epoch++
	}
	nd.down = down
}

// EphemeralPort returns an unbound port in the ephemeral range
// (20000+), advancing past any ports already in use.
func (nd *Node) EphemeralPort() uint16 {
	if nd.nextEphemeral < 20000 {
		nd.nextEphemeral = 20000
	}
	for {
		p := nd.nextEphemeral
		nd.nextEphemeral++
		if _, used := nd.ports[p]; !used {
			return p
		}
	}
}

// ID returns the node's identifier.
func (nd *Node) ID() NodeID { return nd.id }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Router reports whether the node forwards transit traffic.
func (nd *Node) Router() bool { return nd.router }

// Addr returns an address on this node.
func (nd *Node) Addr(port uint16) Addr { return Addr{Node: nd.id, Port: port} }

func (n *Network) addNode(name string, router bool) *Node {
	nd := &Node{
		id:     NodeID(len(n.nodes)),
		name:   name,
		net:    n,
		router: router,
		ports:  make(map[uint16]Handler),
	}
	nd.rsvp = newRSVPAgent(nd)
	n.nodes = append(n.nodes, nd)
	n.dirty = true
	return nd
}

// AddHost adds an endsystem node.
func (n *Network) AddHost(name string) *Node { return n.addNode(name, false) }

// AddRouter adds a forwarding node.
func (n *Network) AddRouter(name string) *Node { return n.addNode(name, true) }

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Links returns all unidirectional links in creation order.
func (n *Network) Links() []*Link { return n.links }

// LinkConfig parameterises one direction of a connection.
type LinkConfig struct {
	// Bps is the link bandwidth in bits per second.
	Bps float64
	// Delay is the propagation delay.
	Delay time.Duration
	// Queue is the egress queueing discipline. Defaults to a FIFO of
	// 64 KiB if nil.
	Queue Qdisc
}

// Connect joins a and b with a duplex connection: one link a->b with
// cfgAB and one link b->a with cfgBA. It returns the two links.
func (n *Network) Connect(a, b *Node, cfgAB, cfgBA LinkConfig) (ab, ba *Link) {
	ab = n.addLink(a, b, cfgAB)
	ba = n.addLink(b, a, cfgBA)
	return ab, ba
}

// ConnectSym joins a and b with identical configuration both ways.
func (n *Network) ConnectSym(a, b *Node, cfg LinkConfig) (ab, ba *Link) {
	cfg2 := cfg
	if cfg.Queue != nil {
		// A qdisc instance holds per-direction state; clone for b->a.
		cfg2.Queue = cfg.Queue.Clone()
	}
	return n.Connect(a, b, cfg, cfg2)
}

func (n *Network) addLink(from, to *Node, cfg LinkConfig) *Link {
	if cfg.Bps <= 0 {
		panic("netsim: link bandwidth must be positive")
	}
	if cfg.Queue == nil {
		cfg.Queue = NewFIFO(64 * 1024)
	}
	l := &Link{
		net:   n,
		from:  from,
		to:    to,
		bps:   cfg.Bps,
		delay: cfg.Delay,
		q:     cfg.Queue,
	}
	l.onRetry, l.onTxDone, l.onArrive = l.kick, l.txDone, l.arriveNext
	from.out = append(from.out, l)
	n.links = append(n.links, l)
	n.dirty = true
	return l
}

// computeRoutes builds shortest-path (hop count) next-hop tables via BFS
// from every node. Deterministic: ties resolve to the earliest-added link.
func (n *Network) computeRoutes() {
	size := len(n.nodes)
	n.nextHop = make([][]*Link, size)
	for i := range n.nextHop {
		n.nextHop[i] = make([]*Link, size)
	}
	for dst := 0; dst < size; dst++ {
		// BFS backwards: find each node's first hop towards dst.
		dist := make([]int, size)
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue := []int{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			// Every link INTO cur extends a path from its source.
			for _, l := range n.links {
				if int(l.to.id) != cur {
					continue
				}
				src := int(l.from.id)
				if dist[src] == -1 {
					dist[src] = dist[cur] + 1
					n.nextHop[src][dst] = l
					queue = append(queue, src)
				}
			}
		}
	}
	n.dirty = false
}

// Route returns the sequence of links a packet from src to dst traverses,
// or nil if unreachable.
func (n *Network) Route(src, dst NodeID) []*Link {
	if n.dirty {
		n.computeRoutes()
	}
	if src == dst {
		return []*Link{}
	}
	var path []*Link
	cur := src
	for cur != dst {
		l := n.nextHop[cur][dst]
		if l == nil {
			return nil
		}
		path = append(path, l)
		cur = l.to.id
		if len(path) > len(n.nodes) {
			panic("netsim: routing loop")
		}
	}
	return path
}

// Bind registers a packet handler on a node port. Binding an in-use port
// panics: it is always a programming error in a scenario.
func (nd *Node) Bind(port uint16, h Handler) {
	if _, used := nd.ports[port]; used {
		panic(fmt.Sprintf("netsim: port %d already bound on %s", port, nd.name))
	}
	nd.ports[port] = h
}

// Unbind releases a port.
func (nd *Node) Unbind(port uint16) { delete(nd.ports, port) }

// Send injects a copy of pkt into the network from node nd, carried by a
// packet from the network's free list. The packet's Src must be an
// address on nd. Delivery (or drop) happens asynchronously in virtual
// time.
func (nd *Node) Send(pkt Packet) {
	if pkt.Src.Node != nd.id {
		panic("netsim: Send with foreign source address")
	}
	p := nd.net.packet()
	*p = pkt
	p.Sent = nd.net.k.Now()
	p.TTL = 64
	st := nd.net.flowStats(p.Flow)
	st.Sent++
	st.SentBytes += int64(p.Size)
	if nd.down {
		nd.net.countDrop(p, DropNodeDown)
		return
	}
	nd.forward(p)
}

// receive handles a packet arriving at this node: local delivery,
// RSVP-control interception, or forwarding.
func (nd *Node) receive(p *Packet) {
	if nd.down {
		nd.net.countDrop(p, DropNodeDown)
		return
	}
	if p.Deadline > 0 && nd.net.k.Now() > p.Deadline {
		nd.net.countDrop(p, DropDeadline)
		return
	}
	if msg, ok := p.Payload.(*rsvpMsg); ok {
		nd.rsvp.process(msg)
		nd.net.recycle(p)
		return
	}
	if p.Dst.Node == nd.id {
		nd.deliver(p)
		return
	}
	nd.forward(p)
}

func (nd *Node) deliver(p *Packet) {
	h, ok := nd.ports[p.Dst.Port]
	if !ok {
		nd.net.countDrop(p, DropNoPort)
		return
	}
	st := nd.net.flowStats(p.Flow)
	st.Delivered++
	st.DeliveredBytes += int64(p.Size)
	st.latSum += nd.net.k.Now() - p.Sent
	h(p)
	nd.net.recycle(p)
}

func (nd *Node) forward(p *Packet) {
	if p.Dst.Node == nd.id {
		nd.deliver(p)
		return
	}
	p.TTL--
	if p.TTL <= 0 {
		nd.net.countDrop(p, DropTTL)
		return
	}
	if nd.net.dirty {
		nd.net.computeRoutes()
	}
	l := nd.net.nextHop[nd.id][p.Dst.Node]
	if l == nil {
		nd.net.countDrop(p, DropUnreachable)
		return
	}
	l.enqueue(p)
}
