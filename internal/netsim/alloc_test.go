//go:build !race

package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// One cross-traffic packet costs no allocation on its whole way — the
// source's tick, two links' queues, transmitters and propagation, the
// router, the sink or the drop — once queues, event heap and packet pool
// have reached their working size. (The race detector allocates on its
// own account, so the pin exists only in an ordinary build.)
func TestAllocsCrossTrafficPacketTwoHops(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	n := New(k)
	src, rtr, dst := n.AddHost("src"), n.AddRouter("rtr"), n.AddHost("dst")
	mk := func() Qdisc { return NewIntServ(NewDiffServ(32*1024, NewDRR(MTU, 64*1024))) }
	n.Connect(src, rtr, LinkConfig{Bps: 100e6, Delay: time.Millisecond, Queue: mk()}, LinkConfig{Bps: 100e6, Queue: mk()})
	n.Connect(rtr, dst, LinkConfig{Bps: 10e6, Delay: time.Millisecond, Queue: mk()}, LinkConfig{Bps: 10e6, Queue: mk()})
	// Twice what the second hop carries: half the packets are delivered,
	// half are dropped at the router.
	const flows = 4
	ct := StartCrossTraffic(n, src, dst, 100, 20e6, flows, DSCPBestEffort)
	k.RunFor(2 * time.Second)

	sent := func() (total int64) {
		for _, g := range ct.gens {
			total += n.FlowStats(g.Flow()).Sent
		}
		return total
	}
	before := sent()
	const rounds = 500
	allocs := testing.AllocsPerRun(rounds, func() { k.RunFor(10 * time.Millisecond) })
	perRound := float64(sent()-before) / (rounds + 1) // AllocsPerRun warms up with one extra call
	if perRound < 10 {
		t.Fatalf("only %.1f packets sent per round; the rounds are not carrying traffic", perRound)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per round of %.0f packets, want 0", allocs, perRound)
	}
	var delivered, dropped int64
	for _, g := range ct.gens {
		st := n.FlowStats(g.Flow())
		delivered += st.Delivered
		dropped += st.Dropped
	}
	if delivered == 0 || dropped == 0 {
		t.Fatalf("delivered %d, dropped %d: the scenario must exercise both ends of a packet's life", delivered, dropped)
	}
}
