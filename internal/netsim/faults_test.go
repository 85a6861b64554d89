package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestLinkLossRate(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.ConnectSym(a, b, LinkConfig{Bps: 100e6})
	ab.SetLossRate(0.3)
	b.Bind(9, func(*Packet) {})
	g := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 10e6, PktSize: 1000})
	g.Start()
	k.RunUntil(5 * time.Second)
	g.Stop()
	k.Run()
	st := n.FlowStats(g.Flow())
	lr := st.LossRate()
	if lr < 0.25 || lr > 0.35 {
		t.Fatalf("loss rate = %.3f, want ~0.30", lr)
	}
	if st.DropReasons[DropLoss] != st.Dropped {
		t.Fatalf("drops not attributed to link loss: %v", st.DropReasons)
	}
	if ab.lost != st.Dropped {
		t.Fatalf("link lost counter %d != flow drops %d", ab.lost, st.Dropped)
	}
	if st.Delivered+st.Dropped != st.Sent {
		t.Fatalf("conservation violated: %+v", st)
	}
}

func TestLinkLossRateValidation(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.ConnectSym(a, b, LinkConfig{Bps: 1e6})
	defer func() {
		if recover() == nil {
			t.Fatal("invalid loss rate accepted")
		}
	}()
	ab.SetLossRate(1.5)
}

func TestLinkDownStallsAndRecovers(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.ConnectSym(a, b, LinkConfig{Bps: 100e6, Queue: NewFIFO(1 << 20)})
	var delivered []sim.Time
	b.Bind(9, func(*Packet) { delivered = append(delivered, k.Now()) })

	ab.SetDown(true)
	flow := n.NewFlowID()
	a.Send(&Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow})
	k.RunUntil(time.Second)
	if len(delivered) != 0 {
		t.Fatal("packet delivered across a down link")
	}
	ab.SetDown(false)
	k.Run()
	if len(delivered) != 1 {
		t.Fatalf("delivered %d after link recovery", len(delivered))
	}
	if delivered[0] < time.Second {
		t.Fatalf("delivery at %v, before recovery", delivered[0])
	}
}

func TestSoftStateExpiresWithoutRefresh(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	r := n.AddRouter("r")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(64 * 1024)) }
	ar, _ := n.Connect(a, r, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	n.Connect(r, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})

	var resv *Reservation
	k.Go("setup", func(p *sim.Proc) {
		var err error
		resv, err = n.ReserveFlow(p, ReservationSpec{
			Flow: n.NewFlowID(), Src: a, Dst: b, RateBps: 1e6,
			SoftLifetime: 3 * time.Second,
		})
		if err != nil {
			t.Errorf("reserve: %v", err)
		}
	})
	k.RunUntil(10 * time.Second)
	// With refreshes flowing, state persists well past the lifetime.
	for _, l := range resv.links {
		if l.Queue().(ReservationCapable).ReservedRate() != 1e6 {
			t.Fatalf("soft state expired despite refreshes on %v", l)
		}
	}
	// Cut the first link: refreshes stop reaching the second hop, whose
	// state must expire within one lifetime. The first hop keeps being
	// refreshed locally (the sender is on that node).
	ar.SetDown(true)
	k.RunUntil(20 * time.Second)
	secondHop := resv.links[1]
	if got := secondHop.Queue().(ReservationCapable).ReservedRate(); got != 0 {
		t.Fatalf("downstream soft state still %v bps after refreshes stopped", got)
	}
}

func TestSoftStateReleaseStopsRefresher(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(64 * 1024)) }
	n.Connect(a, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	k.Go("setup", func(p *sim.Proc) {
		resv, err := n.ReserveFlow(p, ReservationSpec{
			Flow: n.NewFlowID(), Src: a, Dst: b, RateBps: 1e6,
			SoftLifetime: time.Second,
		})
		if err != nil {
			t.Errorf("reserve: %v", err)
			return
		}
		p.Sleep(5 * time.Second)
		resv.Release()
	})
	// The kernel must drain: a leaked refresher would keep scheduling
	// events forever and RunUntil would never go idle.
	k.RunUntil(30 * time.Second)
	if n.Links()[0].Queue().(ReservationCapable).ReservedRate() != 0 {
		t.Fatal("reservation state survived release")
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events still pending after release (leaked refresher?)", k.Pending())
	}
}

func TestHardStatePersistsWithoutRefresh(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewIntServ(NewFIFO(64 * 1024)) }
	n.Connect(a, b, LinkConfig{Bps: 10e6, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	k.Go("setup", func(p *sim.Proc) {
		if _, err := n.ReserveFlow(p, ReservationSpec{
			Flow: n.NewFlowID(), Src: a, Dst: b, RateBps: 1e6,
		}); err != nil {
			t.Errorf("reserve: %v", err)
		}
	})
	k.RunUntil(time.Minute)
	if n.Links()[0].Queue().(ReservationCapable).ReservedRate() != 1e6 {
		t.Fatal("hard reservation state vanished")
	}
}

func TestECNMarkingInsteadOfDrop(t *testing.T) {
	// Two identical over-share flows through a DRR bottleneck: the
	// ECN-capable one gets CE marks and clearly less early-drop loss
	// than the non-capable one.
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	mk := func() Qdisc { return NewDRR(1500, 32*1024) }
	n.Connect(a, b, LinkConfig{Bps: 2e6, Queue: mk()}, LinkConfig{Bps: 2e6, Queue: mk()})
	b.Bind(9, func(*Packet) {})
	b.Bind(10, func(*Packet) {})
	ect := NewCBR(n, CBRConfig{Src: a, SrcPort: 9, Dst: b.Addr(9), Bps: 2e6, PktSize: 1000, ECN: ECNCapable})
	notEct := NewCBR(n, CBRConfig{Src: a, SrcPort: 10, Dst: b.Addr(10), Bps: 2e6, PktSize: 1000})
	ect.Start()
	notEct.Start()
	k.RunUntil(10 * time.Second)
	ect.Stop()
	notEct.Stop()
	k.Run()

	ectStats := n.FlowStats(ect.Flow())
	plainStats := n.FlowStats(notEct.Flow())
	if ectStats.Marked == 0 {
		t.Fatal("no CE marks on the ECN-capable flow")
	}
	if plainStats.Marked != 0 {
		t.Fatalf("non-capable flow got %d marks", plainStats.Marked)
	}
	// A sustained 2x overload loses ~50% either way (conservation): ECN
	// relocates congestion signalling, it does not create bandwidth. A
	// substantial share of the ECT flow's DELIVERED packets carry the
	// congestion signal for its endpoints to react to.
	if frac := float64(ectStats.Marked) / float64(ectStats.Delivered); frac < 0.10 {
		t.Fatalf("only %.2f of delivered ECT packets carry CE", frac)
	}
	for _, st := range []*FlowStats{ectStats, plainStats} {
		if st.Delivered+st.Dropped != st.Sent {
			t.Fatalf("conservation violated: %+v", st)
		}
	}
}
