package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// twoHosts builds a <- l -> b with symmetric links of the given config.
func twoHosts(cfg LinkConfig) (*sim.Kernel, *Network, *Node, *Node) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.ConnectSym(a, b, cfg)
	return k, n, a, b
}

func TestPointToPointDelivery(t *testing.T) {
	k, n, a, b := twoHosts(LinkConfig{Bps: 8e6, Delay: time.Millisecond})
	// The packet is the network's until the handler returns: keep a copy.
	var got Packet
	var at sim.Time
	b.Bind(9, func(p *Packet) { got = *p; at = k.Now() })
	flow := n.NewFlowID()
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow, Payload: "hello"})
	k.Run()
	if got.Payload == nil {
		t.Fatal("packet not delivered")
	}
	if got.Payload != "hello" {
		t.Fatalf("payload = %v", got.Payload)
	}
	// 1000 B at 8 Mbps = 1 ms serialisation + 1 ms propagation.
	if at != 2*time.Millisecond {
		t.Fatalf("delivered at %v, want 2ms", at)
	}
	st := n.FlowStats(flow)
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if meanLatency(st) != 2*time.Millisecond {
		t.Fatalf("mean latency = %v", meanLatency(st))
	}
}

func TestMultiHopRouting(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	r1 := n.AddRouter("r1")
	r2 := n.AddRouter("r2")
	b := n.AddHost("b")
	cfg := LinkConfig{Bps: 8e6, Delay: time.Millisecond}
	n.ConnectSym(a, r1, cfg)
	n.ConnectSym(r1, r2, cfg)
	n.ConnectSym(r2, b, cfg)

	route := n.Route(a.ID(), b.ID())
	if len(route) != 3 {
		t.Fatalf("route has %d hops, want 3", len(route))
	}
	delivered := false
	b.Bind(9, func(p *Packet) { delivered = true })
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: n.NewFlowID()})
	k.Run()
	if !delivered {
		t.Fatal("multi-hop packet not delivered")
	}
	// 3 hops x (1ms tx + 1ms prop) = 6ms.
	if k.Now() != 6*time.Millisecond {
		t.Fatalf("delivery completed at %v, want 6ms", k.Now())
	}
}

func TestShortestPathPreferred(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	r := n.AddRouter("r")
	b := n.AddHost("b")
	cfg := LinkConfig{Bps: 8e6}
	n.ConnectSym(a, r, cfg)
	n.ConnectSym(r, b, cfg)
	n.ConnectSym(a, b, cfg) // direct path
	route := n.Route(a.ID(), b.ID())
	if len(route) != 1 {
		t.Fatalf("route has %d hops, want the direct link", len(route))
	}
}

func TestUnreachableCounted(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b") // not connected
	flow := n.NewFlowID()
	a.Send(Packet{Src: a.Addr(1), Dst: b.Addr(1), Size: 100, Flow: flow})
	k.Run()
	st := n.FlowStats(flow)
	if st.Dropped != 1 || st.DropReasons[DropUnreachable] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoPortDrop(t *testing.T) {
	k, n, a, b := twoHosts(LinkConfig{Bps: 8e6})
	flow := n.NewFlowID()
	a.Send(Packet{Src: a.Addr(1), Dst: b.Addr(77), Size: 100, Flow: flow})
	k.Run()
	st := n.FlowStats(flow)
	if st.DropReasons[DropNoPort] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFIFOOverflowDrops(t *testing.T) {
	// A slow link with a tiny queue: burst in 10 packets, most must drop.
	k, n, a, b := twoHosts(LinkConfig{Bps: 8e4, Queue: NewFIFO(2000)})
	b.Bind(9, func(*Packet) {})
	flow := n.NewFlowID()
	for i := 0; i < 10; i++ {
		a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow})
	}
	k.Run()
	st := n.FlowStats(flow)
	if st.Dropped == 0 {
		t.Fatal("no drops despite queue overflow")
	}
	if st.Delivered+st.Dropped != 10 {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.DropReasons[DropQueue] != st.Dropped {
		t.Fatalf("drops not attributed to queue: %+v", st.DropReasons)
	}
}

func TestDiffServEFPreemptsBestEffort(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewDiffServ(32*1024, NewFIFO(64*1024)) }
	n.Connect(a, b, LinkConfig{Bps: 1e6, Queue: mk()}, LinkConfig{Bps: 1e6, Queue: mk()})
	b.Bind(9, func(*Packet) {})

	// Saturate best effort, then send one EF packet.
	be := n.NewFlowID()
	ef := n.NewFlowID()
	for i := 0; i < 40; i++ {
		a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1500, Flow: be})
	}
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1500, DSCP: DSCPEF, Flow: ef})
	k.Run()

	efLat := meanLatency(n.FlowStats(ef))
	beLat := meanLatency(n.FlowStats(be))
	// The EF packet waits at most for the in-flight BE packet, not the
	// whole backlog.
	if efLat > 3*1500*8*time.Second/1e6 {
		t.Fatalf("EF latency %v too high; strict priority broken", efLat)
	}
	if beLat < 5*efLat {
		t.Fatalf("BE latency %v not clearly above EF latency %v", beLat, efLat)
	}
}

func TestDRRFairnessIsolatesLightFlow(t *testing.T) {
	// A greedy flow and a light flow share a 1 Mbps link with DRR: the
	// light flow (below its fair share) must see ~no loss while the
	// greedy flow eats its own drops.
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewDRR(1500, 16*1024) }
	n.Connect(a, b, LinkConfig{Bps: 1e6, Queue: mk()}, LinkConfig{Bps: 1e6, Queue: mk()})
	b.Bind(9, func(*Packet) {})
	b.Bind(10, func(*Packet) {})

	greedy := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 2e6, PktSize: 1000})
	light := NewCBR(n, CBRConfig{Src: a, SrcPort: 10, Dst: b.Addr(10), Bps: 0.2e6, PktSize: 1000})
	greedy.Start()
	light.Start()
	k.RunUntil(10 * time.Second)
	greedy.Stop()
	light.Stop()

	lightStats := n.FlowStats(light.Flow())
	greedyStats := n.FlowStats(greedy.Flow())
	if lr := lightStats.LossRate(); lr > 0.01 {
		t.Fatalf("light flow loss rate %.3f, want ~0 under DRR", lr)
	}
	if lr := greedyStats.LossRate(); lr < 0.4 {
		t.Fatalf("greedy flow loss rate %.3f, want ~0.6 (offered 2x of ~0.8 share)", lr)
	}
}

func TestCBRRate(t *testing.T) {
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6})
	b.Bind(9, func(*Packet) {})
	g := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 1e6, PktSize: 1250})
	g.Start()
	k.RunUntil(10 * time.Second)
	g.Stop()
	st := n.FlowStats(g.Flow())
	// 1 Mbps at 1250 B = 100 packets/s; 10 s ~ 1000 packets.
	if st.Sent < 990 || st.Sent > 1010 {
		t.Fatalf("CBR sent %d packets in 10s, want ~1000", st.Sent)
	}
}

func TestRSVPReserveAndRelease(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	r := n.AddRouter("r")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(64 * 1024)) }
	n.Connect(a, r, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	n.Connect(r, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})

	flow := n.NewFlowID()
	var resv *Reservation
	var err error
	k.Go("reserve", func(p *sim.Proc) {
		resv, err = n.ReserveFlow(p, ReservationSpec{Flow: flow, Src: a, Dst: b, RateBps: 2e6})
	})
	k.Run()
	if err != nil {
		t.Fatalf("ReserveFlow: %v", err)
	}
	if !resv.active {
		t.Fatal("reservation not active")
	}
	if len(resv.links) != 2 {
		t.Fatalf("reserved on %d links, want 2", len(resv.links))
	}
	for _, l := range resv.links {
		rc := l.Queue().(ReservationCapable)
		if rc.ReservedRate() != 2e6 {
			t.Fatalf("link %v reserved %.0f bps, want 2e6", l, rc.ReservedRate())
		}
	}
	resv.Release()
	k.Run()
	for _, l := range resv.links {
		rc := l.Queue().(ReservationCapable)
		if rc.ReservedRate() != 0 {
			t.Fatalf("link %v still has %.0f bps reserved after release", l, rc.ReservedRate())
		}
	}
}

func TestRSVPAdmissionRejects(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(64 * 1024)) }
	n.Connect(a, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})

	var err1, err2 error
	k.Go("reserve", func(p *sim.Proc) {
		_, err1 = n.ReserveFlow(p, ReservationSpec{Flow: n.NewFlowID(), Src: a, Dst: b, RateBps: 8e6})
		_, err2 = n.ReserveFlow(p, ReservationSpec{Flow: n.NewFlowID(), Src: a, Dst: b, RateBps: 8e6})
	})
	k.Run()
	if err1 != nil {
		t.Fatalf("first reservation: %v", err1)
	}
	if err2 == nil {
		t.Fatal("second reservation admitted past the link cap")
	}
}

func TestRSVPRequiresCapableQueues(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	n.ConnectSym(a, b, LinkConfig{Bps: 10e6, Queue: NewFIFO(64 * 1024)})
	var err error
	k.Go("reserve", func(p *sim.Proc) {
		_, err = n.ReserveFlow(p, ReservationSpec{Flow: n.NewFlowID(), Src: a, Dst: b, RateBps: 1e6})
	})
	k.Run()
	if err == nil {
		t.Fatal("reservation succeeded over non-capable queues")
	}
}

func TestRSVPUnreachable(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	var err error
	k.Go("reserve", func(p *sim.Proc) {
		_, err = n.ReserveFlow(p, ReservationSpec{Flow: n.NewFlowID(), Src: a, Dst: b, RateBps: 1e6})
	})
	k.Run()
	if err == nil {
		t.Fatal("reservation succeeded with no route")
	}
}

func TestIntServIsolatesReservedFlow(t *testing.T) {
	// Reserved 2 Mbps flow vs saturating best-effort cross traffic on a
	// 10 Mbps link: the reserved flow must see low loss and low latency.
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(64 * 1024)) }
	n.Connect(a, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	b.Bind(9, func(*Packet) {})

	flow := n.NewFlowID()
	k.Go("scenario", func(p *sim.Proc) {
		if _, err := n.ReserveFlow(p, ReservationSpec{Flow: flow, Src: a, Dst: b, RateBps: 2e6}); err != nil {
			t.Errorf("reserve: %v", err)
			return
		}
		video := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 1.5e6, PktSize: 1000, Flow: flow})
		video.Start()
		cross := StartCrossTraffic(n, a, b, 100, 40e6, 10, DSCPBestEffort)
		p.Sleep(10 * time.Second)
		video.Stop()
		cross.Stop()
	})
	k.Run()
	st := n.FlowStats(flow)
	if lr := st.LossRate(); lr > 0.01 {
		t.Fatalf("reserved flow loss rate %.3f, want ~0", lr)
	}
	if meanLatency(st) > 20*time.Millisecond {
		t.Fatalf("reserved flow latency %v, want low", meanLatency(st))
	}
}

func TestIntServWorkConservingOnIdleLink(t *testing.T) {
	// A flow offering 2x its reservation on an otherwise idle link
	// borrows the spare bandwidth: everything is delivered.
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(64 * 1024)) }
	n.Connect(a, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	b.Bind(9, func(*Packet) {})

	flow := n.NewFlowID()
	k.Go("scenario", func(p *sim.Proc) {
		if _, err := n.ReserveFlow(p, ReservationSpec{Flow: flow, Src: a, Dst: b, RateBps: 1e6}); err != nil {
			t.Errorf("reserve: %v", err)
			return
		}
		src := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 2e6, PktSize: 1000, Flow: flow})
		src.Start()
		p.Sleep(10 * time.Second)
		src.Stop()
	})
	k.Run()
	st := n.FlowStats(flow)
	if lr := st.LossRate(); lr > 0.01 {
		t.Fatalf("loss rate %.3f on an idle link; work conservation broken", lr)
	}
}

func TestIntServShapesOverRateFlowUnderContention(t *testing.T) {
	// With the link saturated by other traffic, an over-rate reserved
	// flow is held near its reserved rate and its queue overflows.
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(256 * 1024)) }
	n.Connect(a, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	b.Bind(9, func(*Packet) {})
	b.Bind(10, func(*Packet) {})

	flow := n.NewFlowID()
	k.Go("scenario", func(p *sim.Proc) {
		if _, err := n.ReserveFlow(p, ReservationSpec{Flow: flow, Src: a, Dst: b, RateBps: 1e6}); err != nil {
			t.Errorf("reserve: %v", err)
			return
		}
		src := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 2e6, PktSize: 1000, Flow: flow})
		src.Start()
		// Saturating best-effort traffic keeps the inner band busy, so
		// there is no idle bandwidth to borrow.
		bg := NewCBR(n, CBRConfig{Src: a, SrcPort: 10, Dst: b.Addr(10), Bps: 20e6, PktSize: 1000})
		bg.Start()
		p.Sleep(10 * time.Second)
		src.Stop()
		bg.Stop()
	})
	k.Run()
	st := n.FlowStats(flow)
	gotBps := float64(st.DeliveredBytes*8) / 10
	if gotBps < 0.9e6 || gotBps > 1.3e6 {
		t.Fatalf("contended throughput %.0f bps, want ~1e6 (the reserved rate)", gotBps)
	}
	if st.Dropped == 0 {
		t.Fatal("over-rate flow saw no drops at the flow queue")
	}
}

func TestPacketConservation(t *testing.T) {
	// Every sent packet is eventually delivered or dropped.
	k, n, a, b := twoHosts(LinkConfig{Bps: 1e6, Queue: NewFIFO(8 * 1024)})
	b.Bind(9, func(*Packet) {})
	g := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 3e6, PktSize: 1000})
	g.Start()
	k.RunUntil(5 * time.Second)
	g.Stop()
	k.Run() // drain in-flight packets
	st := n.FlowStats(g.Flow())
	if st.Delivered+st.Dropped != st.Sent {
		t.Fatalf("conservation violated: sent=%d delivered=%d dropped=%d",
			st.Sent, st.Delivered, st.Dropped)
	}
	if st.Dropped == 0 {
		t.Fatal("expected congestion drops at 3x overload")
	}
}

// Recycling cross-traffic packets must not be observable: a bundle and
// the same sources built by hand (which allocate every packet) produce
// identical per-flow statistics, including on links that duplicate,
// reorder and corrupt — the paths that copy or hold a packet.
func TestCrossTrafficRecyclingChangesNothing(t *testing.T) {
	const flows = 5
	run := func(bundle bool) []FlowStats {
		k := sim.NewKernel(9)
		defer k.Close()
		n := New(k)
		src, rtr, dst := n.AddHost("src"), n.AddRouter("rtr"), n.AddHost("dst")
		ab, _ := n.ConnectSym(src, rtr, LinkConfig{Bps: 100e6, Delay: time.Millisecond})
		bc, _ := n.ConnectSym(rtr, dst, LinkConfig{Bps: 5e6, Delay: 2 * time.Millisecond, Queue: NewDRR(MTU, 16*1024)})
		ab.SetFaults(FaultProfile{Duplicate: 0.05, Reorder: 0.05})
		bc.SetFaults(FaultProfile{Corrupt: 0.05, Duplicate: 0.05, Reorder: 0.05})
		bc.SetLossRate(0.02)
		var gens []*TrafficGen
		if bundle {
			gens = StartCrossTraffic(n, src, dst, 100, 12e6, flows, DSCPBestEffort).gens
		} else {
			for i := 0; i < flows; i++ {
				port := uint16(100 + i)
				dst.Bind(port, func(*Packet) {})
				g := NewCBR(n, CBRConfig{Src: src, SrcPort: port, Dst: dst.Addr(port), Bps: 12e6 / flows})
				g.Start()
				gens = append(gens, g)
			}
		}
		k.At(time.Second, func() { dst.SetDown(true) }) // packets die in transit too
		k.At(1100*time.Millisecond, func() { dst.SetDown(false) })
		k.RunUntil(3 * time.Second)
		var out []FlowStats
		for _, g := range gens {
			out = append(out, *n.FlowStats(g.Flow()))
		}
		return out
	}
	pooled, plain := run(true), run(false)
	for i := range plain {
		if !reflect.DeepEqual(pooled[i], plain[i]) {
			t.Fatalf("flow %d: recycled %+v, allocated %+v", i, pooled[i], plain[i])
		}
		if plain[i].Delivered == 0 || plain[i].Dropped == 0 {
			t.Fatalf("flow %d delivered %d dropped %d: the scenario must exercise both", i, plain[i].Delivered, plain[i].Dropped)
		}
	}
}

// meanLatency is the flow's average delivery latency.
func meanLatency(st *FlowStats) time.Duration { return st.latSum / time.Duration(st.Delivered) }
