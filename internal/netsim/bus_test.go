package netsim

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
)

// TestDropRecordsReconcile: with a bus attached, every packet the network
// destroys is one KindDrop record sourced "net", so the records equal the
// flows' Dropped counters in total and reason by reason, and each names
// the packet's destination and flow.
func TestDropRecordsReconcile(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	n := New(k)
	bus := events.NewBus(k)
	log := events.NewTimeline(bus, events.KindDrop)
	n.SetBus(bus)
	src, rtr, dst := n.AddHost("src"), n.AddRouter("rtr"), n.AddHost("dst")
	island := n.AddHost("island")
	n.ConnectSym(src, rtr, LinkConfig{Bps: 100e6, Delay: time.Millisecond})
	n.ConnectSym(rtr, dst, LinkConfig{Bps: 10e6, Delay: time.Millisecond})

	// Twice what the second hop carries: queue drops at the router.
	ct := StartCrossTraffic(n, src, dst, 100, 20e6, 4, DSCPBestEffort)
	k.RunFor(500 * time.Millisecond)
	// A crash: packets reaching the node die there. An instant reboot:
	// packets already in flight die on arrival.
	dst.SetDown(true)
	k.RunFor(100 * time.Millisecond)
	dst.SetDown(false)
	k.RunFor(100 * time.Millisecond)
	dst.SetDown(true)
	dst.SetDown(false)
	k.RunFor(100 * time.Millisecond)
	ct.Stop()
	flow := n.NewFlowID()
	src.Send(Packet{Src: src.Addr(1), Dst: dst.Addr(9), Size: 100, Flow: flow})    // no listener
	src.Send(Packet{Src: src.Addr(1), Dst: island.Addr(9), Size: 100, Flow: flow}) // no route
	k.RunFor(time.Second)

	want := map[string]int64{}
	var total int64
	for _, st := range n.stats {
		if st == nil {
			continue // a flow id no packet has used
		}
		total += st.Dropped
		for reason, c := range st.DropReasons {
			want[reason.String()] += c
		}
	}
	got := map[string]int64{}
	for _, r := range log.Records() {
		if r.Source != "net" || len(r.Fields) != 3 || r.Fields[1].K != "dst" || r.Fields[2].K != "flow" {
			t.Fatalf("drop record %v, want source net with reason, dst and flow", r)
		}
		f, err := strconv.ParseUint(r.Fields[2].V, 10, 64)
		if err != nil || f >= uint64(len(n.stats)) || n.stats[f] == nil {
			t.Fatalf("drop record %v names no flow the network counted", r)
		}
		got[r.Fields[0].V]++
	}
	if int64(log.Len()) != total {
		t.Errorf("%d KindDrop records, flows dropped %d", log.Len(), total)
	}
	for _, reason := range []DropReason{DropQueue, DropNodeDown, DropTransitDown, DropNoPort, DropUnreachable} {
		if want[reason.String()] == 0 {
			t.Errorf("the scenario caused no %s drop", reason)
		}
	}
	if len(got) != len(want) {
		t.Errorf("records by reason %v, flows by reason %v", got, want)
	}
	for reason, c := range want {
		if got[reason] != c {
			t.Errorf("%s: %d records, flows dropped %d", reason, got[reason], c)
		}
	}
}
