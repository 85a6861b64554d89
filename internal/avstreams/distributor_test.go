package avstreams

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/video"
)

// distributorRig builds source -> distributor -> {display, atr}.
func distributorRig(t *testing.T) (*sim.Kernel, *Service, *Service, *Service, *Service) {
	t.Helper()
	k := sim.NewKernel(1)
	n := netsim.New(k)
	src := n.AddHost("source")
	dist := n.AddHost("dist")
	display := n.AddHost("display")
	atr := n.AddHost("atr")
	mk := func() netsim.Qdisc {
		return netsim.NewIntServ(netsim.NewDiffServ(64*1024, netsim.NewDRR(1500, 64*1024)))
	}
	link := func(a, b *netsim.Node, bps float64) {
		n.Connect(a, b,
			netsim.LinkConfig{Bps: bps, Delay: time.Millisecond, Queue: mk()},
			netsim.LinkConfig{Bps: bps, Delay: time.Millisecond, Queue: mk()})
	}
	link(src, dist, 20e6)
	link(dist, display, 10e6)
	link(dist, atr, 10e6)
	mkSvc := func(name string, nd *netsim.Node) *Service {
		return NewService(rtos.NewHost(k, name, rtos.HostConfig{Quantum: time.Millisecond}), n, nd)
	}
	return k, mkSvc("source", src), mkSvc("dist", dist), mkSvc("display", display), mkSvc("atr", atr)
}

func TestDistributorFansOut(t *testing.T) {
	k, srcSvc, distSvc, dispSvc, atrSvc := distributorRig(t)
	dispRecv := dispSvc.CreateReceiver(5000, 50, nil)
	atrRecv := atrSvc.CreateReceiver(5000, 50, nil)

	d := distSvc.NewDistributor(4000, 60)
	distSvc.host.Spawn("branches", 60, func(th *rtos.Thread) {
		if _, err := d.AddBranch(th.Proc(), 4001, dispRecv.Addr(), QoS{}); err != nil {
			t.Errorf("display branch: %v", err)
		}
		if _, err := d.AddBranch(th.Proc(), 4002, atrRecv.Addr(), QoS{}); err != nil {
			t.Errorf("atr branch: %v", err)
		}
	})
	sender := srcSvc.CreateSender(4100)
	srcSvc.host.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), d.InAddr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		th.Sleep(100 * time.Millisecond) // let the branches come up
		st.RunSource(th, video.NewGenerator(), 3*time.Second)
	})
	k.RunUntil(6 * time.Second)
	if dispRecv.Stats.ReceivedTotal < 85 || atrRecv.Stats.ReceivedTotal < 85 {
		t.Fatalf("fan-out delivered %d / %d frames, want ~90 each",
			dispRecv.Stats.ReceivedTotal, atrRecv.Stats.ReceivedTotal)
	}
}

func TestDistributorPerBranchFilter(t *testing.T) {
	k, srcSvc, distSvc, dispSvc, atrSvc := distributorRig(t)
	dispRecv := dispSvc.CreateReceiver(5000, 50, nil)
	atrRecv := atrSvc.CreateReceiver(5000, 50, nil)

	d := distSvc.NewDistributor(4000, 60)
	distSvc.host.Spawn("branches", 60, func(th *rtos.Thread) {
		full, err := d.AddBranch(th.Proc(), 4001, dispRecv.Addr(), QoS{})
		if err != nil {
			t.Errorf("branch: %v", err)
			return
		}
		_ = full // display branch passes everything
		thin, err := d.AddBranch(th.Proc(), 4002, atrRecv.Addr(), QoS{})
		if err != nil {
			t.Errorf("branch: %v", err)
			return
		}
		thin.SetFilter(video.FilterIOnly)
	})
	sender := srcSvc.CreateSender(4100)
	srcSvc.host.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), d.InAddr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		th.Sleep(100 * time.Millisecond)
		st.RunSource(th, video.NewGenerator(), 5*time.Second)
	})
	k.RunUntil(8 * time.Second)
	// Display sees ~30 fps; ATR sees only the 2 fps of I frames.
	if dispRecv.Stats.ReceivedTotal < 140 {
		t.Fatalf("display received %d", dispRecv.Stats.ReceivedTotal)
	}
	if atrRecv.Stats.ReceivedTotal > 12 {
		t.Fatalf("ATR received %d frames, want ~10 (I-only)", atrRecv.Stats.ReceivedTotal)
	}
	if atrRecv.Stats.RecvByType[video.FrameB] != 0 || atrRecv.Stats.RecvByType[video.FrameP] != 0 {
		t.Fatalf("non-I frames reached the filtered branch: %v", atrRecv.Stats.RecvByType)
	}
}

func TestDistributorBranchReservation(t *testing.T) {
	k, srcSvc, distSvc, dispSvc, _ := distributorRig(t)
	dispRecv := dispSvc.CreateReceiver(5000, 50, nil)
	d := distSvc.NewDistributor(4000, 60)
	var st *Stream
	distSvc.host.Spawn("branches", 60, func(th *rtos.Thread) {
		var err error
		st, err = d.AddBranch(th.Proc(), 4001, dispRecv.Addr(), QoS{ReserveBps: 1.4e6})
		if err != nil {
			t.Errorf("branch: %v", err)
		}
	})
	// Swamp the dist->display link with best-effort cross traffic; the
	// reserved branch must still deliver.
	cross := netsim.StartCrossTraffic(
		distSvc.net, distSvc.ep.Node(), dispSvc.ep.Node(),
		6000, 40e6, 20, netsim.DSCPBestEffort)
	defer cross.Stop()
	sender := srcSvc.CreateSender(4100)
	srcSvc.host.Spawn("source", 50, func(th *rtos.Thread) {
		up, err := sender.Bind(th.Proc(), d.InAddr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		th.Sleep(100 * time.Millisecond)
		up.RunSource(th, video.NewGenerator(), 5*time.Second)
	})
	k.RunUntil(8 * time.Second)
	if st == nil || st.resv == nil {
		t.Fatal("branch reservation missing")
	}
	frac := float64(dispRecv.Stats.ReceivedTotal) / 150
	if frac < 0.95 {
		t.Fatalf("reserved branch delivered %.2f under cross load", frac)
	}
}
