package core

import (
	"testing"
	"time"

	"repro/internal/avstreams"
	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/video"
)

// TestFigure3ArchitectureEndToEnd runs the paper's full evaluation
// application (Figure 3): UAV video sources feed a distributor that fans
// out to a control-station display and an ATR processor across a
// contended network. The display branch is reserved and EF-marked; the
// ATR branch rides best effort with QuO frame filtering. Under a mid-run
// load pulse the reserved branch must stay whole while the adaptive
// branch degrades to I-frames and recovers.
func TestFigure3ArchitectureEndToEnd(t *testing.T) {
	sys := NewSystem(42)
	uav1 := sys.AddMachine("uav1", rtos.HostConfig{Hz: 750e6})
	uav2 := sys.AddMachine("uav2", rtos.HostConfig{Hz: 750e6})
	dist := sys.AddMachine("distributor", rtos.HostConfig{Hz: 1e9})
	display := sys.AddMachine("display", rtos.HostConfig{Hz: 1e9})
	atr := sys.AddMachine("atr", rtos.HostConfig{Hz: 850e6})
	sys.AddRouter("router")

	up := LinkSpec{Bps: 20e6, Delay: 2 * time.Millisecond}
	down := LinkSpec{Bps: 10e6, Delay: time.Millisecond, Profile: ProfileFullQoS}
	sys.Link("uav1", "distributor", up)
	sys.Link("uav2", "distributor", up)
	sys.Link("distributor", "router", down)
	sys.Link("router", "display", down)
	sys.Link("router", "atr", down)

	displayRecv := display.AV().CreateReceiver(5000, 60, nil)
	atrRecv := atr.AV().CreateReceiver(5000, 60, nil)

	d := dist.AV().NewDistributor(4000, 70)
	var adaptive *VideoAdaptation
	var displayBranch, atrBranch *avstreams.Stream
	dist.Host.Spawn("branches", 70, func(th *rtos.Thread) {
		// Display branch: reserved end to end (distributor -> router ->
		// display), marked EF.
		var err error
		if displayBranch, err = d.AddBranch(th.Proc(), 4001, displayRecv.Addr(), avstreams.QoS{
			ReserveBps: 1.5e6,
			DSCP:       netsim.DSCPEF,
		}); err != nil {
			t.Errorf("display branch: %v", err)
			return
		}
		// ATR branch: best effort with QuO adaptation.
		atrBranch, err = d.AddBranch(th.Proc(), 4002, atrRecv.Addr(), avstreams.QoS{})
		if err != nil {
			t.Errorf("atr branch: %v", err)
			return
		}
		adaptive = sys.NewVideoAdaptation(atrBranch, atrRecv)
	})

	// Two UAV sources: only uav1's flow is relayed by this distributor;
	// uav2 streams directly to the display host as background best-
	// effort application traffic (a second pipeline in Figure 3).
	startSource := func(m *Machine, port uint16, dst netsim.Addr) {
		sender := m.AV().CreateSender(port)
		m.Host.Spawn("camera", 40, func(th *rtos.Thread) {
			st, err := sender.Bind(th.Proc(), dst, avstreams.QoS{})
			if err != nil {
				t.Errorf("bind: %v", err)
				return
			}
			th.Sleep(200 * time.Millisecond)
			st.RunSource(th, video.NewGenerator(), 90*time.Second)
		})
	}
	startSource(uav1, 4100, d.InAddr())
	aux := display.AV().CreateReceiver(5002, 10, nil)
	startSource(uav2, 4100, aux.Addr())

	// Load pulse on the shared downlink between t=30s and t=60s.
	var cross *netsim.CrossTraffic
	sys.K.At(30*time.Second, func() {
		cross = netsim.StartCrossTraffic(sys.Net, dist.Node, atr.Node, 6000, 43.8e6, 20, netsim.DSCPBestEffort)
	})
	sys.K.At(60*time.Second, func() { cross.Stop() })

	sys.RunUntil(95 * time.Second)

	// The reserved display branch is essentially unaffected.
	displayFrac := float64(displayRecv.Stats.ReceivedTotal) / float64(displayBranch.Stats.SentTotal)
	if displayFrac < 0.99 {
		t.Fatalf("reserved display branch delivered %.3f", displayFrac)
	}
	// The adaptive branch filtered under load and recovered afterwards.
	if adaptive == nil || adaptive.Transitions == 0 {
		t.Fatal("ATR branch never adapted")
	}
	if adaptive.Level() != video.FilterNone {
		t.Fatalf("ATR branch stuck at %v after load cleared", adaptive.Level())
	}
	// During the load window the ATR branch thinned (occasional upward
	// probes allowed) and delivered the bulk of what it sent.
	_, atrRecvPerSec := atrRecv.Stats.PerSecond(95)
	sentPerSec, _ := atrBranch.Stats.PerSecond(95)
	var sentLoad, recvLoad, filteredSeconds int64
	for s := 35; s < 60; s++ {
		sentLoad += sentPerSec[s]
		recvLoad += atrRecvPerSec[s]
		if sentPerSec[s] <= 11 {
			filteredSeconds++
		}
	}
	if filteredSeconds < 20 {
		t.Fatalf("ATR branch ran filtered only %d/25 load seconds", filteredSeconds)
	}
	if frac := float64(recvLoad) / float64(sentLoad); frac < 0.8 {
		t.Fatalf("ATR branch delivered %.2f of sent frames under load", frac)
	}
	// And both receivers got the full rate again near the end (the
	// sources stop at ~t=90, so sample t=88).
	_, dispPerSec := displayRecv.Stats.PerSecond(95)
	if atrRecvPerSec[88] < 28 || dispPerSec[88] < 28 {
		t.Fatalf("pipelines did not recover: atr=%d display=%d", atrRecvPerSec[88], dispPerSec[88])
	}
}
