package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/avstreams"
	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/video"
)

func videoSystem(profile LinkProfile, bps float64) (*System, *Machine, *Machine) {
	sys := NewSystem(1)
	snd := sys.AddMachine("sender", rtos.HostConfig{Quantum: time.Millisecond})
	rcv := sys.AddMachine("receiver", rtos.HostConfig{Quantum: time.Millisecond})
	sys.Link("sender", "receiver", LinkSpec{Bps: bps, Delay: time.Millisecond, Profile: profile})
	return sys, snd, rcv
}

func TestSystemBuilder(t *testing.T) {
	sys := NewSystem(1)
	a := sys.AddMachine("a", rtos.HostConfig{})
	sys.AddRouter("r")
	b := sys.AddMachine("b", rtos.HostConfig{})
	sys.Link("a", "r", LinkSpec{Bps: 10e6})
	sys.Link("r", "b", LinkSpec{Bps: 10e6})
	if sys.Machine("a") != a || sys.Machine("b") != b {
		t.Fatal("lookup failures")
	}
	route := sys.Net.Route(a.Node.ID(), b.Node.ID())
	if len(route) != 2 {
		t.Fatalf("route length = %d", len(route))
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	sys := NewSystem(1)
	sys.AddMachine("x", rtos.HostConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name accepted")
		}
	}()
	sys.AddRouter("x")
}

func TestLinkProfiles(t *testing.T) {
	for _, p := range []LinkProfile{ProfileBestEffort, ProfileDiffServ, ProfileFullQoS} {
		q := LinkSpec{Profile: p}.qdisc()
		_, capable := q.(netsim.ReservationCapable)
		if capable != (p == ProfileFullQoS) {
			t.Errorf("profile %v reservation-capable = %v", p, capable)
		}
	}
}

func TestPriorityDrivenReservations(t *testing.T) {
	// Three activities compete for a 10 Mbps bottleneck (9 Mbps
	// reservable). High gets its full 6 Mbps; mid degrades to within
	// what is left; low is denied (no floor).
	sys, snd, rcv := videoSystem(ProfileFullQoS, 10e6)
	qm := NewQoSManager(sys)
	high := &Activity{Name: "high", Priority: 30000}
	mid := &Activity{Name: "mid", Priority: 20000}
	low := &Activity{Name: "low", Priority: 1000}
	var results []AllocationResult
	snd.Host.Spawn("alloc", 50, func(th *rtos.Thread) {
		results = qm.PriorityDrivenReservations(th.Proc(), []ReservationRequest{
			{Activity: low, Flow: sys.Net.NewFlowID(), Src: snd, Dst: rcv, RateBps: 4e6},
			{Activity: high, Flow: sys.Net.NewFlowID(), Src: snd, Dst: rcv, RateBps: 6e6},
			{Activity: mid, Flow: sys.Net.NewFlowID(), Src: snd, Dst: rcv, RateBps: 6e6, MinRateBps: 1e6},
		})
	})
	sys.RunUntil(5 * time.Second)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Results come back in priority order: high, mid, low.
	if results[0].Request.Activity != high || results[0].GrantedBps != 6e6 {
		t.Fatalf("high allocation = %+v", results[0])
	}
	if results[1].Request.Activity != mid || results[1].GrantedBps <= 0 || results[1].GrantedBps > 3e6 {
		t.Fatalf("mid allocation = %+v", results[1])
	}
	if results[2].Request.Activity != low || !errors.Is(results[2].Err, ErrDenied) {
		t.Fatalf("low allocation = %+v", results[2])
	}
}

func TestVideoAdaptationEscalatesAndRecovers(t *testing.T) {
	sys, snd, rcv := videoSystem(ProfileFullQoS, 10e6)
	recv := rcv.AV().CreateReceiver(5000, 50, nil)
	sender := snd.AV().CreateSender(5001)

	var va *VideoAdaptation
	snd.Host.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), recv.Addr(), avstreams.QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		va = sys.NewVideoAdaptation(st, recv)
		st.RunSource(th, video.NewGenerator(), 90*time.Second)
	})

	// Heavy cross traffic between t=10s and t=40s.
	var cross *netsim.CrossTraffic
	sys.K.After(10*time.Second, func() {
		cross = netsim.StartCrossTraffic(sys.Net, snd.Node, rcv.Node, 6000, 40e6, 40, netsim.DSCPBestEffort)
	})
	sys.K.After(40*time.Second, func() { cross.Stop() })

	sys.RunUntil(9 * time.Second)
	if va == nil || va.Level() != video.FilterNone {
		t.Fatalf("filtering before load: %v", va.Level())
	}
	sys.RunUntil(35 * time.Second)
	if va.Level() == video.FilterNone {
		t.Fatal("adaptation did not escalate under load")
	}
	sys.RunUntil(80 * time.Second)
	if va.Level() != video.FilterNone {
		t.Fatalf("adaptation did not recover after load: %v", va.Level())
	}
	if va.Transitions < 2 {
		t.Fatalf("transitions = %d", va.Transitions)
	}
}
