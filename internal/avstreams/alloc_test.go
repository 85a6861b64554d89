//go:build !race

package avstreams

import (
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/video"
)

// TestAllocsSendFrame: once the network's queues and free list have
// reached their working size, a video frame sent through a datagram pair
// costs one allocation, its framePacket — the datagram message rides
// inside it, and the packet, its transport header and the receiver's copy
// of the message cost nothing. (The race detector allocates on its own
// account, so the pin exists only in an ordinary build.)
func TestAllocsSendFrame(t *testing.T) {
	r := newRig(10e6)
	defer r.k.Close()
	rx := transport.NewEndpoint(r.net, r.net.Node(1)).OpenDgram(5000, 0)
	received := 0
	r.k.Go("recv", func(p *sim.Proc) {
		for {
			rx.Recv(p)
			received++
		}
	})
	sender := r.sendSvc.CreateSender(5001)
	r.sendHost.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), rx.LocalAddr(), QoS{})
		if err != nil {
			t.Error(err)
			return
		}
		// One fragment: a frame of several is reassembled, which costs
		// the receiver a record of its own.
		f := video.Frame{Type: video.FrameB, Size: 1000}
		for next := th.Now(); ; f.Seq++ {
			st.sendFrame(th, f, trace.SpanContext{})
			next += sim.Time(time.Millisecond)
			th.Sleep(next - th.Now())
		}
	})
	r.k.RunUntil(100 * time.Millisecond) // warm: queues, rings, free list
	warm := received
	const rounds = 200
	allocs := testing.AllocsPerRun(rounds, func() { r.k.RunFor(time.Millisecond) })
	if n := received - warm; n != rounds+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d frames received in %d rounds, want one per round", n, rounds+1)
	}
	if allocs != 1 {
		t.Fatalf("%v allocations per frame sent, want 1: the framePacket", allocs)
	}
}
