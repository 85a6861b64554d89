package core

import (
	"testing"
	"time"

	"repro/internal/avstreams"
	"repro/internal/orb"
	"repro/internal/rtos"
	"repro/internal/video"
)

// TestInvocationSurvivesLinkFlap drives a CORBA invocation across a link
// that goes down mid-call: the transport's retransmission must deliver
// the request and reply once the link recovers.
func TestInvocationSurvivesLinkFlap(t *testing.T) {
	sys := NewSystem(1)
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	srv := sys.AddMachine("srv", rtos.HostConfig{})
	sys.Link("cli", "srv", LinkSpec{Bps: 10e6, Delay: time.Millisecond})

	srvORB := srv.ORB(orb.Config{})
	cliORB := cli.ORB(orb.Config{})
	poa, _ := srvORB.CreatePOA("app", orb.POAConfig{})
	ref, _ := poa.Activate("echo", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		return req.Body, nil
	}))

	// Take both directions down just before the call, recover at t=3s.
	links := sys.Net.Links()
	sys.K.At(90*time.Millisecond, func() {
		for _, l := range links {
			l.SetDown(true)
		}
	})
	sys.K.At(3*time.Second, func() {
		for _, l := range links {
			l.SetDown(false)
		}
	})

	var reply []byte
	var err error
	var doneAt time.Duration
	cli.Host.Spawn("caller", 10, func(th *rtos.Thread) {
		th.Sleep(100 * time.Millisecond)
		reply, err = cliORB.Invoke(th, ref, "op", []byte("ping"))
		doneAt = time.Duration(th.Now())
	})
	sys.RunUntil(30 * time.Second)
	if err != nil {
		t.Fatalf("invoke across flapping link: %v", err)
	}
	if string(reply) != "ping" {
		t.Fatalf("reply = %q", reply)
	}
	if doneAt < 3*time.Second {
		t.Fatalf("call completed at %v, before the link recovered", doneAt)
	}
}

// TestStreamOverLossyLink checks the video data path degrades
// proportionally (not catastrophically or silently) under random link
// loss, and that accounting stays consistent.
func TestStreamOverLossyLink(t *testing.T) {
	sys := NewSystem(1)
	snd := sys.AddMachine("snd", rtos.HostConfig{})
	rcv := sys.AddMachine("rcv", rtos.HostConfig{})
	sys.Link("snd", "rcv", LinkSpec{Bps: 10e6, Delay: time.Millisecond})
	sys.Net.Links()[0].SetLossRate(0.05)

	recv := rcv.AV().CreateReceiver(5000, 50, nil)
	sender := snd.AV().CreateSender(5001)
	var st *avstreams.Stream
	snd.Host.Spawn("source", 50, func(th *rtos.Thread) {
		var err error
		st, err = sender.Bind(th.Proc(), recv.Addr(), avstreams.QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		st.RunSource(th, video.NewGenerator(), 20*time.Second)
	})
	sys.RunUntil(25 * time.Second)
	frac := float64(recv.Stats.ReceivedTotal) / float64(st.Stats.SentTotal)
	// Frames average ~3.5 fragments; 5% fragment loss kills roughly
	// 1-(0.95^3.5) ~ 16% of frames. Accept a generous band.
	if frac < 0.70 || frac > 0.95 {
		t.Fatalf("delivered fraction %.3f under 5%% fragment loss, want ~0.84", frac)
	}
}

// TestAdaptationReactsToLinkLoss: heavy injected loss looks like
// congestion to the QuO contract; the filter must escalate (even though
// thinning cannot cure random loss, the contract must not sit idle) and
// de-escalate after the loss clears.
func TestAdaptationReactsToLinkLoss(t *testing.T) {
	sys := NewSystem(1)
	snd := sys.AddMachine("snd", rtos.HostConfig{})
	rcv := sys.AddMachine("rcv", rtos.HostConfig{})
	sys.Link("snd", "rcv", LinkSpec{Bps: 10e6, Delay: time.Millisecond})
	link := sys.Net.Links()[0]

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
		st.RunSource(th, video.NewGenerator(), 60*time.Second)
	})
	sys.K.At(10*time.Second, func() { link.SetLossRate(0.4) })
	sys.K.At(30*time.Second, func() { link.SetLossRate(0) })

	sys.RunUntil(25 * time.Second)
	if va.Level() == video.FilterNone {
		t.Fatal("adaptation ignored 40% link loss")
	}
	sys.RunUntil(65 * time.Second)
	if va.Level() != video.FilterNone {
		t.Fatalf("adaptation stuck at %v after loss cleared", va.Level())
	}
}
