package avstreams

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/video"
)

type rig struct {
	k        *sim.Kernel
	net      *netsim.Network
	sendHost *rtos.Host
	recvHost *rtos.Host
	sendSvc  *Service
	recvSvc  *Service
}

func newRig(bps float64) *rig {
	k := sim.NewKernel(1)
	n := netsim.New(k)
	sn := n.AddHost("sender")
	rn := n.AddHost("receiver")
	mk := func() netsim.Qdisc {
		return netsim.NewIntServ(netsim.NewDiffServ(64*1024, netsim.NewDRR(1500, 32*1024)))
	}
	n.Connect(sn, rn,
		netsim.LinkConfig{Bps: bps, Delay: time.Millisecond, Queue: mk()},
		netsim.LinkConfig{Bps: bps, Delay: time.Millisecond, Queue: mk()})
	sh := rtos.NewHost(k, "sender", rtos.HostConfig{Quantum: time.Millisecond})
	rh := rtos.NewHost(k, "receiver", rtos.HostConfig{Quantum: time.Millisecond})
	return &rig{
		k:        k,
		net:      n,
		sendHost: sh,
		recvHost: rh,
		sendSvc:  NewService(sh, n, sn),
		recvSvc:  NewService(rh, n, rn),
	}
}

func TestStreamDeliversAllFramesUncongested(t *testing.T) {
	r := newRig(10e6)
	recv := r.recvSvc.CreateReceiver(5000, 50, nil)
	sender := r.sendSvc.CreateSender(5001)
	r.sendHost.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), recv.Addr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		st.RunSource(th, video.NewGenerator(), 5*time.Second)
	})
	r.k.RunUntil(7 * time.Second)
	if recv.Stats.ReceivedTotal < 145 || recv.Stats.ReceivedTotal > 151 {
		t.Fatalf("received %d frames, want ~150 (5s at 30fps)", recv.Stats.ReceivedTotal)
	}
	// End-to-end latency on an idle 10 Mbps link stays in milliseconds.
	for _, d := range recv.Latency {
		if d > 50*time.Millisecond {
			t.Fatalf("frame latency %v on an idle link", d)
		}
	}
}

func TestFilterLevelsReduceTraffic(t *testing.T) {
	r := newRig(10e6)
	recv := r.recvSvc.CreateReceiver(5000, 50, nil)
	sender := r.sendSvc.CreateSender(5001)
	var st *Stream
	r.sendHost.Spawn("source", 50, func(th *rtos.Thread) {
		var err error
		st, err = sender.Bind(th.Proc(), recv.Addr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		st.SetFilter(video.FilterIOnly)
		st.RunSource(th, video.NewGenerator(), 5*time.Second)
	})
	r.k.RunUntil(7 * time.Second)
	// 5 seconds at 2 fps (I-frames only).
	if recv.Stats.ReceivedTotal < 9 || recv.Stats.ReceivedTotal > 11 {
		t.Fatalf("received %d frames with I-only filter, want ~10", recv.Stats.ReceivedTotal)
	}
	if recv.Stats.RecvByType[video.FrameP] != 0 || recv.Stats.RecvByType[video.FrameB] != 0 {
		t.Fatalf("non-I frames leaked: %v", recv.Stats.RecvByType)
	}
	if st.FilteredFrames == 0 {
		t.Fatal("filter counted no suppressed frames")
	}
}

func TestReservationIsolatesStreamFromCrossTraffic(t *testing.T) {
	r := newRig(10e6)
	recv := r.recvSvc.CreateReceiver(5000, 50, nil)
	sender := r.sendSvc.CreateSender(5001)

	// 40 best-effort cross flows offering 4x the link rate.
	src := r.sendSvc.ep.Node()
	dst := r.recvSvc.ep.Node()
	cross := netsim.StartCrossTraffic(r.net, src, dst, 6000, 40e6, 40, netsim.DSCPBestEffort)
	defer cross.Stop()

	r.sendHost.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), recv.Addr(), QoS{ReserveBps: 1.3e6})
		if err != nil {
			t.Errorf("bind with reservation: %v", err)
			return
		}
		if st.resv == nil {
			t.Error("no reservation attached")
			return
		}
		st.RunSource(th, video.NewGenerator(), 5*time.Second)
		st.resv.Release()
	})
	r.k.RunUntil(8 * time.Second)
	frac := float64(recv.Stats.ReceivedTotal) / 150.0
	if frac < 0.98 {
		t.Fatalf("reserved stream delivered %.2f of frames under 4x cross load", frac)
	}
}

func TestUnprotectedStreamCollapsesUnderCrossTraffic(t *testing.T) {
	r := newRig(10e6)
	recv := r.recvSvc.CreateReceiver(5000, 50, nil)
	sender := r.sendSvc.CreateSender(5001)
	src := r.sendSvc.ep.Node()
	dst := r.recvSvc.ep.Node()
	cross := netsim.StartCrossTraffic(r.net, src, dst, 6000, 40e6, 40, netsim.DSCPBestEffort)
	defer cross.Stop()

	r.sendHost.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), recv.Addr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		st.RunSource(th, video.NewGenerator(), 5*time.Second)
	})
	r.k.RunUntil(8 * time.Second)
	frac := float64(recv.Stats.ReceivedTotal) / 150.0
	if frac > 0.5 {
		t.Fatalf("unprotected 1.2 Mbps stream delivered %.2f of frames against 40 flows on 10 Mbps", frac)
	}
}

func TestBindReservationFailureSurfaces(t *testing.T) {
	// Links without IntServ queues must make Bind fail, not silently
	// proceed unreserved.
	k := sim.NewKernel(1)
	n := netsim.New(k)
	sn := n.AddHost("s")
	rn := n.AddHost("r")
	n.ConnectSym(sn, rn, netsim.LinkConfig{Bps: 10e6, Queue: netsim.NewFIFO(64 * 1024)})
	sh := rtos.NewHost(k, "s", rtos.HostConfig{})
	rh := rtos.NewHost(k, "r", rtos.HostConfig{})
	sendSvc := NewService(sh, n, sn)
	recvSvc := NewService(rh, n, rn)
	recv := recvSvc.CreateReceiver(5000, 50, nil)
	sender := sendSvc.CreateSender(5001)
	var bindErr error
	sh.Spawn("source", 50, func(th *rtos.Thread) {
		_, bindErr = sender.Bind(th.Proc(), recv.Addr(), QoS{ReserveBps: 1e6})
	})
	k.RunUntil(10 * time.Second)
	if bindErr == nil {
		t.Fatal("bind succeeded without reservation-capable queues")
	}
}

func TestHandlerSeesFrames(t *testing.T) {
	r := newRig(10e6)
	var seen int
	recv := r.recvSvc.CreateReceiver(5000, 50, func(f video.Frame, sentAt, recvAt sim.Time) {
		seen++
		if recvAt <= sentAt {
			t.Errorf("recvAt %v <= sentAt %v", recvAt, sentAt)
		}
	})
	sender := r.sendSvc.CreateSender(5001)
	r.sendHost.Spawn("source", 50, func(th *rtos.Thread) {
		st, _ := sender.Bind(th.Proc(), recv.Addr(), QoS{})
		st.RunSource(th, video.NewGenerator(), time.Second)
	})
	r.k.RunUntil(3 * time.Second)
	if seen < 29 {
		t.Fatalf("handler saw %d frames", seen)
	}
}

func TestInterArrivalJitter(t *testing.T) {
	r := newRig(10e6)
	recv := r.recvSvc.CreateReceiver(5000, 50, nil)
	sender := r.sendSvc.CreateSender(5001)
	r.sendHost.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), recv.Addr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		st.RunSource(th, video.NewGenerator(), 5*time.Second)
	})
	r.k.RunUntil(7 * time.Second)
	mean, std := jitter(recv.ArrivalTimes())
	// Uncongested 30 fps: gaps ~33ms with small serialisation-induced
	// variance.
	if mean < 30*time.Millisecond || mean > 37*time.Millisecond {
		t.Fatalf("mean inter-arrival = %v, want ~33ms", mean)
	}
	if std > 15*time.Millisecond {
		t.Fatalf("jitter std = %v on an idle link", std)
	}
}

// jitter is the mean and standard deviation of the gaps between
// consecutive arrivals.
func jitter(arrived []sim.Time) (mean, std time.Duration) {
	n := float64(len(arrived) - 1)
	var sum, sqSum float64
	for i := 1; i < len(arrived); i++ {
		gap := (arrived[i] - arrived[i-1]).Seconds()
		sum += gap
		sqSum += gap * gap
	}
	m := sum / n
	return time.Duration(m * float64(time.Second)), time.Duration(math.Sqrt(sqSum/n-m*m) * float64(time.Second))
}
