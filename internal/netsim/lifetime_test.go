package netsim_test

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Every packet the network carries comes from, and goes back to, its one
// free list: under cross traffic and a stream transport, with corrupted,
// duplicated and reordered packets, link loss and a crash of the
// receiving host, no packet is recycled twice, none is handed to a
// handler while it sits on the free list, and every handler sees a
// packet fully reset by its last trip: no stale hop span, deadline or
// trace context.
func TestPacketLifetimeUnderFaults(t *testing.T) {
	k := sim.NewKernel(5)
	defer k.Close()
	n := netsim.New(k)
	n.SetTracer(trace.NewTracer(k))
	a, r, b := n.AddHost("a"), n.AddRouter("r"), n.AddHost("b")
	ar, _ := n.ConnectSym(a, r, netsim.LinkConfig{Bps: 100e6, Delay: time.Millisecond})
	rb, _ := n.ConnectSym(r, b, netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond,
		Queue: netsim.NewDiffServ(16*1024, netsim.NewDRR(netsim.MTU, 16*1024))})
	faults := netsim.FaultProfile{Corrupt: 0.05, Duplicate: 0.05, Reorder: 0.05}
	ar.SetFaults(faults)
	rb.SetFaults(faults)
	ar.SetLossRate(0.02)

	// Clean traffic carries neither deadline nor trace context: cross
	// traffic over the bottleneck's capacity, and a stream of messages.
	ct := netsim.StartCrossTraffic(n, a, b, 100, 12e6, 4, netsim.DSCPBestEffort)
	clean := map[uint16]bool{100: true, 101: true, 102: true, 103: true, 200: true, 300: true}
	ea, eb := transport.NewEndpoint(n, a), transport.NewEndpoint(n, b)
	ln := eb.Listen(200)
	conn := ea.Dial(300, b.Addr(200))
	received := 0
	k.Go("stream-recv", func(p *sim.Proc) {
		c := ln.Accept(p)
		for {
			c.Recv(p)
			received++
		}
	})
	// Dirty traffic carries both, and hop spans in transit: datagrams
	// with a deadline and a trace context.
	root := trace.NewTracer(k).StartRoot("flow", "test")
	da, db := ea.OpenDgram(400, 0), eb.OpenDgram(400, 0)
	k.Go("dgram-recv", func(p *sim.Proc) {
		for {
			db.Recv(p)
		}
	})
	k.Go("senders", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			conn.Send(&transport.Message{Data: make([]byte, 1+i%3000)})
			da.Send(b.Addr(400), &transport.Message{Data: make([]byte, 1+i%2000),
				Deadline: p.Now() + sim.Time(time.Second), Ctx: root.Context()})
			p.Sleep(5 * time.Millisecond)
		}
	})
	k.After(700*time.Millisecond, func() { b.SetDown(true) })
	k.After(800*time.Millisecond, func() { b.SetDown(false) })

	inFree := func(p *netsim.Packet) bool {
		for _, q := range netsim.FreePackets(n) {
			if q == p {
				return true
			}
		}
		return false
	}
	handled := 0
	for _, nd := range []*netsim.Node{a, b} {
		netsim.WrapHandlers(nd, func(port uint16, h netsim.Handler) netsim.Handler {
			return func(p *netsim.Packet) {
				handled++
				if inFree(p) {
					t.Fatalf("port %d handed a packet that is on the free list", port)
				}
				if netsim.HopSpan(p) != nil {
					t.Fatalf("port %d handed a packet with an open hop span", port)
				}
				if clean[port] && (p.Deadline != 0 || p.Ctx != (trace.SpanContext{})) {
					t.Fatalf("port %d handed a packet with a stale deadline %v or context %v", port, p.Deadline, p.Ctx)
				}
				h(p)
			}
		})
	}
	checkFree := func() {
		seen := make(map[*netsim.Packet]bool)
		for _, p := range netsim.FreePackets(n) {
			if seen[p] {
				t.Fatalf("packet %p is on the free list twice", p)
			}
			seen[p] = true
		}
	}
	stop := k.Every(time.Millisecond, checkFree)
	k.RunFor(3 * time.Second)
	stop()
	ct.Stop()
	k.RunFor(5 * time.Second)
	checkFree()

	if received != 300 || handled < 2000 {
		t.Fatalf("%d of 300 stream messages received, %d packets handled", received, handled)
	}
	reasons := map[netsim.DropReason]int64{}
	for f, last := netsim.FlowID(1), n.NewFlowID(); f < last; f++ {
		for r, c := range n.FlowStats(f).DropReasons {
			reasons[r] += c
		}
	}
	for _, r := range []netsim.DropReason{netsim.DropQueue, netsim.DropLoss, netsim.DropNodeDown, netsim.DropTransitDown} {
		if reasons[r] == 0 {
			t.Errorf("no %s drop: the scenario missed one way a packet's life ends", r)
		}
	}
}
