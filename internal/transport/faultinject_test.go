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
	k.Go("recv", func(p *sim.Proc) { m := cb.Recv(p); got = &m })
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
	k.Go("recv", func(p *sim.Proc) { m := cb.Recv(p); got = &m })
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
	// range, nonsense counts, count disagreeing with the train), that
	// name another protocol or that carry no message must be ignored
	// without panicking or completing a message early.
	k, _, ea, eb := pair(nil, 10e6)
	cb := eb.OpenDgram(100, 0)
	send := func(h netsim.Header, payload any) {
		ea.node.Send(netsim.Packet{
			Src: ea.Addr(200), Dst: eb.Addr(100), Size: 100,
			Flow: 1, Hdr: h, Payload: payload,
		})
	}
	frag := func(msgID uint64, idx, count int32) netsim.Header {
		return netsim.Header{Proto: protoDgram, Seq: msgID, Idx: idx, Count: count}
	}
	msg := &Message{Data: []byte("payload")}
	bogus := &Message{Data: []byte("bogus")}
	k.Go("inject", func(p *sim.Proc) {
		send(frag(7, 5, 2), bogus)                                      // idx >= count
		send(frag(7, -1, 2), bogus)                                     // negative idx
		send(frag(7, 0, 0), bogus)                                      // zero count
		send(netsim.Header{Proto: protoStream, Flags: flagLast}, bogus) // a stream segment
		send(netsim.Header{Seq: 9, Count: 1}, bogus)                    // no protocol
		send(frag(9, 0, 1), nil)                                        // no message
		send(frag(9, 0, 1), (*Message)(nil))                            // a nil message
		send(frag(9, 0, 1), "bogus")                                    // not a message
		send(frag(8, 0, 2), msg)                                        // starts a train
		send(frag(8, 1, 3), bogus)                                      // count mismatch: ignored
		p.Sleep(10 * time.Millisecond)
		send(frag(8, 1, 2), msg) // completes it
	})
	var got *Message
	k.Go("recv", func(p *sim.Proc) { m := cb.Recv(p); got = &m })
	k.Run()
	if cb.recvMsgs != 1 {
		t.Fatalf("ReceivedMessages = %d, want exactly 1", cb.recvMsgs)
	}
	if got == nil || string(got.Data) != "payload" {
		t.Fatalf("got %+v", got)
	}
}

func TestStreamMalformedSegmentHeadersIgnored(t *testing.T) {
	// Stream packets whose flags disagree with their payload (an ack
	// carrying data, data carrying no message) or that name another
	// protocol must be ignored without panicking, delivering anything
	// early or disturbing the connection. Each bogus packet would be the
	// receiver's next expected, final segment if it were accepted.
	k, _, ea, eb := pair(nil, 10e6)
	lis := eb.Listen(200)
	cli := ea.Dial(300, eb.Addr(200))
	var got []string
	k.Go("server", func(p *sim.Proc) {
		conn := lis.Accept(p)
		for {
			got = append(got, string(conn.Recv(p).Data))
		}
	})
	send := func(from *Endpoint, src, dst netsim.Addr, h netsim.Header, payload any) {
		from.node.Send(netsim.Packet{Src: src, Dst: dst, Size: 100, Flow: 1, Hdr: h, Payload: payload})
	}
	bogus := &Message{Data: []byte("bogus")}
	junk := []struct {
		h       netsim.Header
		payload any
	}{
		{netsim.Header{Proto: protoStream, Flags: flagAck | flagLast, Seq: 1, Ack: 5}, bogus}, // an ack carrying data
		{netsim.Header{Proto: protoStream, Flags: flagLast, Seq: 1}, nil},                     // data with no payload
		{netsim.Header{Proto: protoStream, Flags: flagLast, Seq: 1}, (*Message)(nil)},         // data with a nil message
		{netsim.Header{Proto: protoStream, Flags: flagLast, Seq: 1}, "bogus"},                 // data that is no message
		{netsim.Header{Proto: protoDgram, Flags: flagLast, Seq: 1, Count: 1}, bogus},          // a datagram fragment
		{netsim.Header{Flags: flagLast, Seq: 1}, bogus},                                       // no protocol
	}
	k.Go("client", func(p *sim.Proc) {
		cli.Send(&Message{Data: []byte("one")})
		p.Sleep(10 * time.Millisecond)
		for _, j := range junk {
			// At the listener's connection, at the listener from a
			// stranger, and at the dialer, whose next expected segment
			// is its first.
			send(ea, cli.LocalAddr(), eb.Addr(200), j.h, j.payload)
			send(ea, ea.Addr(999), eb.Addr(200), j.h, j.payload)
			h := j.h
			h.Seq = 0
			send(eb, eb.Addr(200), cli.LocalAddr(), h, j.payload)
		}
		p.Sleep(10 * time.Millisecond)
		cli.Send(&Message{Data: []byte("two")})
	})
	k.RunUntil(time.Second)
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("the listener's connection delivered %q, want [one two]", got)
	}
	if len(lis.conns) != 1 {
		t.Fatalf("%d connections at the listener, want 1: a malformed packet opened one", len(lis.conns))
	}
	if n := cli.recvQ.Len(); n != 0 {
		t.Fatalf("the dialer delivered %d messages, want none", n)
	}
	if cli.retransmits != 0 {
		t.Fatalf("%d retransmissions: a malformed ack moved the sender's window", cli.retransmits)
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
