package netsim

import (
	"fmt"
	"time"
)

// TrafficGen is a synthetic constant-bit-rate packet source, the model
// for the paper's cross-traffic generators (16 Mbps in the DiffServ
// experiments, 43.8 Mbps in the reservation experiments).
type TrafficGen struct {
	net     *Network
	src     *Node
	srcPort uint16
	dst     Addr
	bps     float64
	pktSize int
	dscp    DSCP
	flow    FlowID
	running bool
	onTick  func() // tick, bound once
}

// CBRConfig parameterises a constant-bit-rate source.
type CBRConfig struct {
	Src     *Node
	SrcPort uint16
	Dst     Addr
	Bps     float64
	// PktSize defaults to MTU.
	PktSize int
	DSCP    DSCP
	// Flow defaults to a freshly allocated id.
	Flow FlowID
}

// NewCBR creates a stopped CBR source.
func NewCBR(n *Network, cfg CBRConfig) *TrafficGen {
	if cfg.PktSize == 0 {
		cfg.PktSize = MTU
	}
	if cfg.Flow == 0 {
		cfg.Flow = n.NewFlowID()
	}
	g := &TrafficGen{
		net:     n,
		src:     cfg.Src,
		srcPort: cfg.SrcPort,
		dst:     cfg.Dst,
		bps:     cfg.Bps,
		pktSize: cfg.PktSize,
		dscp:    cfg.DSCP,
		flow:    cfg.Flow,
	}
	g.onTick = g.tick
	return g
}

// Flow returns the generator's flow id.
func (g *TrafficGen) Flow() FlowID { return g.flow }

// Start begins emitting packets at the configured rate. The first packet
// is phase-shifted by a random fraction of the inter-packet gap so that
// multiple generators do not emit in lockstep.
func (g *TrafficGen) Start() {
	if g.running {
		return
	}
	g.running = true
	gap := g.gap()
	phase := time.Duration(g.net.k.Rand().Float64() * float64(gap))
	g.net.k.After(phase, g.onTick)
}

// Stop halts the generator after the current packet.
func (g *TrafficGen) Stop() { g.running = false }

func (g *TrafficGen) gap() time.Duration {
	return time.Duration(float64(g.pktSize*8) / g.bps * float64(time.Second))
}

func (g *TrafficGen) tick() {
	if !g.running {
		return
	}
	g.src.Send(Packet{
		Src:  g.src.Addr(g.srcPort),
		Dst:  g.dst,
		Size: g.pktSize,
		DSCP: g.dscp,
		Flow: g.flow,
	})
	g.net.k.After(g.gap(), g.onTick)
}

// CrossTraffic is a bundle of CBR flows sharing a path — the multi-flow
// load a traffic generator offers. Splitting the aggregate across many
// flows matters under fair-queueing disciplines: each cross flow then
// competes for one fair share, as independent connections would.
type CrossTraffic struct {
	gens []*TrafficGen
}

// discard is the handler of every destination port of a bundle:
// deliveries are counted by flow stats, and the network recycles the
// packet when the handler returns.
func discard(*Packet) {}

// StartCrossTraffic launches `flows` CBR sources from src to dst whose
// rates sum to totalBps, addressed to consecutive ports starting at
// basePort on the destination. The generators start immediately.
func StartCrossTraffic(n *Network, src *Node, dst *Node, basePort uint16, totalBps float64, flows int, dscp DSCP) *CrossTraffic {
	if flows <= 0 {
		panic(fmt.Sprintf("netsim: cross traffic needs flows > 0, got %d", flows))
	}
	ct := &CrossTraffic{}
	per := totalBps / float64(flows)
	for i := 0; i < flows; i++ {
		port := basePort + uint16(i)
		dst.Bind(port, discard)
		g := NewCBR(n, CBRConfig{
			Src:     src,
			SrcPort: port,
			Dst:     dst.Addr(port),
			Bps:     per,
			DSCP:    dscp,
		})
		g.Start()
		ct.gens = append(ct.gens, g)
	}
	return ct
}

// Stop halts all flows in the bundle.
func (ct *CrossTraffic) Stop() {
	for _, g := range ct.gens {
		g.Stop()
	}
}
