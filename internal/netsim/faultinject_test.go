package netsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// corruptibleBytes is a test payload implementing Corrupter: corruption
// flips one bit in a copied byte slice.
type corruptibleBytes struct{ data []byte }

func (c *corruptibleBytes) CorruptCopy(r *rand.Rand) any {
	cp := append([]byte(nil), c.data...)
	bit := r.Intn(len(cp) * 8)
	cp[bit/8] ^= 1 << (bit % 8)
	return &corruptibleBytes{data: cp}
}

func TestMidTransitCrashDropsPacket(t *testing.T) {
	// The receiver crashes while a packet is on the wire and reboots
	// before the packet would arrive. Pre-crash bytes must not
	// materialise on the rebooted node: the packet dies with
	// DropTransitDown instead of being delivered on heal.
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: 10 * time.Millisecond})
	delivered := 0
	b.Bind(9, func(*Packet) { delivered++ })
	flow := n.NewFlowID()
	// 1000 B at 100 Mbps = 80 us serialisation, arrival at ~10.08 ms.
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow})
	k.After(5*time.Millisecond, func() { b.SetDown(true) })
	k.After(8*time.Millisecond, func() { b.SetDown(false) })
	k.Run()
	if delivered != 0 {
		t.Fatal("packet from before the crash delivered after reboot")
	}
	st := n.FlowStats(flow)
	if st.DropReasons[DropTransitDown] != 1 {
		t.Fatalf("drop reasons = %v, want 1 transit-node-down", st.DropReasons)
	}
	if b.epoch != 1 {
		t.Fatalf("epoch = %d, want 1", b.epoch)
	}
}

func TestCorruptionDeliversFlippedCopy(t *testing.T) {
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond})
	ab := n.Links()[0]
	ab.SetFaults(FaultProfile{Corrupt: 1.0})
	orig := []byte{0x00, 0x00, 0x00, 0x00}
	payload := &corruptibleBytes{data: append([]byte(nil), orig...)}
	var got Packet // a copy: the packet is the network's once the handler returns
	b.Bind(9, func(p *Packet) { got = *p })
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: n.NewFlowID(), Payload: payload})
	k.Run()
	if got.Payload == nil {
		t.Fatal("corrupted packet not delivered")
	}
	cp := got.Payload.(*corruptibleBytes)
	if bytes.Equal(cp.data, orig) {
		t.Fatal("delivered payload not corrupted")
	}
	// Exactly one bit differs, and the original was not aliased.
	diff := 0
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			if (cp.data[i]^orig[i])>>bit&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
	if !bytes.Equal(payload.data, orig) {
		t.Fatal("corruption mutated the sender's original payload")
	}
	if ab.corrupted != 1 {
		t.Fatalf("Corrupted() = %d, want 1", ab.corrupted)
	}
}

func TestCorruptionDestroysIntegrityCheckedPayload(t *testing.T) {
	// A payload that does not implement Corrupter models one protected
	// by a checksum: corruption destroys the packet rather than
	// delivering garbage.
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond})
	n.Links()[0].SetFaults(FaultProfile{Corrupt: 1.0})
	delivered := 0
	b.Bind(9, func(*Packet) { delivered++ })
	flow := n.NewFlowID()
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow, Payload: "opaque"})
	k.Run()
	if delivered != 0 {
		t.Fatal("checksum-failed packet was delivered")
	}
	if n.FlowStats(flow).DropReasons[DropCorrupt] != 1 {
		t.Fatalf("drop reasons = %v, want 1 corrupt", n.FlowStats(flow).DropReasons)
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond})
	ab := n.Links()[0]
	ab.SetFaults(FaultProfile{Duplicate: 1.0})
	delivered := 0
	b.Bind(9, func(*Packet) { delivered++ })
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: n.NewFlowID()})
	k.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d times, want 2", delivered)
	}
	if ab.duplicated != 1 {
		t.Fatalf("Duplicated() = %d, want 1", ab.duplicated)
	}
}

func TestReorderSwapsArrivalOrder(t *testing.T) {
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond})
	ab := n.Links()[0]
	ab.SetFaults(FaultProfile{Reorder: 1.0})
	var order []string
	b.Bind(9, func(p *Packet) { order = append(order, p.Payload.(string)) })
	flow := n.NewFlowID()
	// First packet transmitted under Reorder=1 is held back; faults are
	// cleared before the second packet's transmission completes, so it
	// overtakes the first.
	a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow, Payload: "first"})
	k.After(500*time.Microsecond, func() {
		ab.SetFaults(FaultProfile{})
		a.Send(Packet{Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow, Payload: "second"})
	})
	k.Run()
	if len(order) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(order))
	}
	if order[0] != "second" || order[1] != "first" {
		t.Fatalf("arrival order = %v, want [second first]", order)
	}
	if ab.reordered != 1 {
		t.Fatalf("Reordered() = %d, want 1", ab.reordered)
	}
}

func TestDeadlineExpiredDroppedAtEnqueue(t *testing.T) {
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: time.Millisecond})
	ab := n.Links()[0]
	delivered := 0
	b.Bind(9, func(*Packet) { delivered++ })
	flow := n.NewFlowID()
	k.After(2*time.Millisecond, func() {
		a.Send(Packet{
			Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow,
			Deadline: sim.Time(time.Millisecond), // already past
		})
	})
	k.Run()
	if delivered != 0 {
		t.Fatal("expired packet delivered")
	}
	if n.FlowStats(flow).DropReasons[DropDeadline] != 1 {
		t.Fatalf("drop reasons = %v, want 1 deadline", n.FlowStats(flow).DropReasons)
	}
	if ab.txPackets != 0 {
		t.Fatalf("expired packet consumed bandwidth: TxPackets = %d", ab.txPackets)
	}
}

func TestDeadlineExpiredDroppedInTransit(t *testing.T) {
	// The deadline passes while the packet is propagating: the arrival
	// node sheds it instead of delivering late.
	k, n, a, b := twoHosts(LinkConfig{Bps: 100e6, Delay: 10 * time.Millisecond})
	delivered := 0
	b.Bind(9, func(*Packet) { delivered++ })
	flow := n.NewFlowID()
	a.Send(Packet{
		Src: a.Addr(9), Dst: b.Addr(9), Size: 1000, Flow: flow,
		Deadline: sim.Time(5 * time.Millisecond), // arrival is at ~10.08ms
	})
	k.Run()
	if delivered != 0 {
		t.Fatal("late packet delivered past its deadline")
	}
	st := n.FlowStats(flow)
	if st.DropReasons[DropDeadline] != 1 {
		t.Fatalf("drop reasons = %v, want 1 deadline", st.DropReasons)
	}
}

func TestFaultProfileValidation(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	ab, _ := n.ConnectSym(a, b, LinkConfig{Bps: 1e6})
	defer func() {
		if recover() == nil {
			t.Fatal("invalid fault profile accepted")
		}
	}()
	ab.SetFaults(FaultProfile{Duplicate: 1.5})
}
