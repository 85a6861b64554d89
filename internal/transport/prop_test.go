package transport

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Property: the reliable stream delivers every message exactly once, in
// order, byte-for-byte intact, for arbitrary message mixes over an
// arbitrarily lossy link.
func TestPropertyStreamReliability(t *testing.T) {
	prop := func(sizes []uint16, lossSel uint8) bool {
		loss := float64(lossSel%60) / 100 // 0..59% per-packet loss
		return streamDeliversAll(sizes, func(ab, ba *netsim.Link) {
			ab.SetLossRate(loss)
			ba.SetLossRate(loss / 2) // acks drop too
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same holds when both links duplicate and reorder
// packets — segments and acks alike arrive twice, late, or out of turn,
// and each carries the header it was sent with.
func TestPropertyStreamDuplicateReorder(t *testing.T) {
	prop := func(sizes []uint16, dupSel, reorderSel uint8) bool {
		f := netsim.FaultProfile{
			Duplicate: float64(dupSel%60) / 100,     // 0..59% per packet
			Reorder:   float64(reorderSel%40) / 100, // 0..39% per packet
		}
		return streamDeliversAll(sizes, func(ab, ba *netsim.Link) {
			ab.SetFaults(f)
			ba.SetFaults(f)
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// streamDeliversAll sends one message per entry of sizes (at most 20)
// over a stream whose two links faults has configured, and reports
// whether the receiver got each exactly once, in order, byte-exact.
func streamDeliversAll(sizes []uint16, faults func(ab, ba *netsim.Link)) bool {
	if len(sizes) == 0 {
		return true
	}
	if len(sizes) > 20 {
		sizes = sizes[:20]
	}
	k := sim.NewKernel(13)
	defer k.Close()
	n := netsim.New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	faults(n.ConnectSym(a, b, netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond}))

	ea := NewEndpoint(n, a)
	eb := NewEndpoint(n, b)
	lis := eb.Listen(100)
	cli := ea.Dial(200, eb.Addr(100))

	var got [][]byte
	k.Go("server", func(p *sim.Proc) {
		conn := lis.Accept(p)
		for {
			got = append(got, conn.Recv(p).Data)
		}
	})
	for i, s := range sizes {
		size := int(s)%8000 + 1
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i)
		}
		cli.Send(&Message{Data: data})
	}
	// Generous horizon: high loss with RTO backoff can be slow.
	k.RunUntil(10 * time.Minute)
	if len(got) != len(sizes) {
		return false
	}
	for i, data := range got {
		wantSize := int(sizes[i])%8000 + 1
		if len(data) != wantSize {
			return false
		}
		for _, bb := range data {
			if bb != byte(i) {
				return false
			}
		}
	}
	return true
}

// Property: datagram messaging never duplicates or corrupts — each
// delivered message is one that was sent, at most once, whatever the
// loss pattern.
func TestPropertyDgramAtMostOnce(t *testing.T) {
	prop := func(count uint8, lossSel uint8) bool {
		msgs := int(count)%40 + 1
		loss := float64(lossSel%50) / 100
		k := sim.NewKernel(17)
		n := netsim.New(k)
		a := n.AddHost("a")
		b := n.AddHost("b")
		ab, _ := n.ConnectSym(a, b, netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond})
		ab.SetLossRate(loss)
		ea := NewEndpoint(n, a)
		eb := NewEndpoint(n, b)
		ca := ea.OpenDgram(100, 0)
		cb := eb.OpenDgram(100, 0)
		seen := map[string]int{}
		k.Go("recv", func(p *sim.Proc) {
			for {
				m, ok := cb.recvQ.GetTimeout(p, 30*time.Second)
				if !ok {
					return
				}
				seen[m.Payload.(string)]++
			}
		})
		for i := 0; i < msgs; i++ {
			ca.Send(eb.Addr(100), &Message{
				Payload: fmt.Sprintf("m%d", i),
				Size:    int(count)*100 + 200,
			})
		}
		k.Run()
		if len(seen) > msgs {
			return false
		}
		for key, c := range seen {
			if c != 1 {
				return false
			}
			var idx int
			if _, err := fmt.Sscanf(key, "m%d", &idx); err != nil || idx < 0 || idx >= msgs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
