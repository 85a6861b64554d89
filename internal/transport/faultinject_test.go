package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// faultPair is pair() plus a fault profile installed on the a->b link.
func faultPair(f netsim.FaultProfile) (*sim.Kernel, *netsim.Network, *Endpoint, *Endpoint) {
	k, n, ea, eb := pair(nil, 10e6)
	n.Links()[0].SetFaults(f)
	return k, n, ea, eb
}

func TestDgramDuplicatedFragmentsDeliverOnce(t *testing.T) {
	// Every fragment of a two-fragment message is delivered twice; the
	// reassembler must not let duplicate copies stand in for the missing
	// index, and must not deliver the message more than once.
	k, _, ea, eb := faultPair(netsim.FaultProfile{Duplicate: 1.0})
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	var got *Message
	k.Go("recv", func(p *sim.Proc) { got = cb.Recv(p) })
	ca.Send(eb.Addr(100), &Message{Payload: "frame", Size: 2000})
	k.Run()
	if got == nil || got.Payload != "frame" {
		t.Fatalf("got %+v", got)
	}
	if cb.recvMsgs != 1 {
		t.Fatalf("ReceivedMessages = %d, want 1", cb.recvMsgs)
	}
}

func TestDgramCorruptedFragmentFlipsOneBit(t *testing.T) {
	k, _, ea, eb := faultPair(netsim.FaultProfile{Corrupt: 1.0})
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	orig := []byte("precise bytes")
	sent := &Message{Data: append([]byte(nil), orig...)}
	var got *Message
	k.Go("recv", func(p *sim.Proc) { got = cb.Recv(p) })
	ca.Send(eb.Addr(100), sent)
	k.Run()
	if got == nil {
		t.Fatal("corrupted datagram not delivered")
	}
	diff := 0
	for i := range orig {
		for b := 0; b < 8; b++ {
			if (got.Data[i]^orig[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
	if !bytes.Equal(sent.Data, orig) {
		t.Fatal("corruption mutated the sender's message")
	}
}

func TestDgramByteslessPayloadDestroyedByCorruption(t *testing.T) {
	// A simulated object (video frame) has no bytes to flip: corruption
	// models a checksum failure and the fragment dies on the wire, so the
	// message is never reassembled.
	k, n, ea, eb := faultPair(netsim.FaultProfile{Corrupt: 1.0})
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	ca.Send(eb.Addr(100), &Message{Payload: "frame", Size: 500})
	k.Run()
	if cb.recvMsgs != 0 {
		t.Fatal("checksum-failed frame was delivered")
	}
	if n.FlowStats(ca.Flow()).DropReasons[netsim.DropCorrupt] != 1 {
		t.Fatalf("drop reasons = %v", n.FlowStats(ca.Flow()).DropReasons)
	}
}

func TestDgramMalformedFragmentHeadersIgnored(t *testing.T) {
	// Fragments whose headers were hit by corruption (index out of
	// range, nonsense counts, count disagreeing with the train) must be
	// ignored without panicking or completing a message early.
	k, _, ea, eb := pair(nil, 10e6)
	cb := eb.OpenDgram(100, 0)
	src := ea.Addr(200)
	send := func(f *fragment) {
		ea.node.Send(netsim.Packet{
			Src: src, Dst: eb.Addr(100), Size: 100,
			Flow: 1, Payload: f,
		})
	}
	msg := &Message{Data: []byte("payload")}
	k.Go("inject", func(p *sim.Proc) {
		send(&fragment{msgID: 7, idx: 5, count: 2, payload: msg})  // idx >= count
		send(&fragment{msgID: 7, idx: -1, count: 2, payload: msg}) // negative idx
		send(&fragment{msgID: 7, idx: 0, count: 0, payload: msg})  // zero count
		send(&fragment{msgID: 8, idx: 0, count: 2, payload: msg})  // starts a train
		send(&fragment{msgID: 8, idx: 1, count: 3, payload: msg})  // count mismatch: ignored
		p.Sleep(10 * time.Millisecond)
		send(&fragment{msgID: 8, idx: 1, count: 2, payload: msg}) // completes it
	})
	var got *Message
	k.Go("recv", func(p *sim.Proc) { got = cb.Recv(p) })
	k.Run()
	if cb.recvMsgs != 1 {
		t.Fatalf("ReceivedMessages = %d, want exactly 1", cb.recvMsgs)
	}
	if got == nil || string(got.Data) != "payload" {
		t.Fatalf("got %+v", got)
	}
}

func TestDgramDeadlineShedsExpiredFragments(t *testing.T) {
	// Message.Deadline is stamped onto every fragment; a deadline that
	// passes while packets are in flight sheds them in the network.
	k, n, ea, eb := pair(nil, 10e6) // 1 ms propagation delay
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	ca.Send(eb.Addr(100), &Message{
		Data:     []byte("late"),
		Deadline: sim.Time(500 * time.Microsecond),
	})
	k.Run()
	if cb.recvMsgs != 0 {
		t.Fatal("expired datagram delivered past its deadline")
	}
	if n.FlowStats(ca.Flow()).DropReasons[netsim.DropDeadline] == 0 {
		t.Fatalf("drop reasons = %v, want deadline sheds", n.FlowStats(ca.Flow()).DropReasons)
	}
}

func TestStreamDeliversUnderCorruption(t *testing.T) {
	// Injected corruption must not wedge the reliable stream: corrupted
	// data segments are still protocol-valid (seq/ack intact), acks and
	// headers die as checksum failures and are retransmitted around.
	k, _, ea, eb := faultPair(netsim.FaultProfile{Corrupt: 0.3})
	lis := eb.Listen(100)
	conn := ea.Dial(200, eb.Addr(100))
	const msgs = 20
	var got int
	k.Go("recv", func(p *sim.Proc) {
		c := lis.Accept(p)
		for i := 0; i < msgs; i++ {
			c.Recv(p)
			got++
		}
	})
	k.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			conn.SendWait(p, &Message{Data: []byte("stream data payload")})
		}
	})
	k.RunUntil(time.Minute)
	if got != msgs {
		t.Fatalf("delivered %d/%d messages under corruption", got, msgs)
	}
}
