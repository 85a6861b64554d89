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
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow})
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
