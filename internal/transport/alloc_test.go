//go:build !race

package transport

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The network carries a transport's segments and fragments in packets
// from its free list, so once queues, the event heap and the free list
// have reached their working size a message costs only what the
// transport itself keeps: its payload records and the receiver's copy of
// the message — no packet. (The race detector allocates on its own
// account, so the pins exist only in an ordinary build.)

// One one-segment stream message and its ack: the data segment, the ack
// segment and the delivered copy — three objects, where a packet per
// segment would make five.
func TestAllocsStreamMessageAndAck(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	defer k.Close()
	ln := eb.Listen(200)
	c := ea.Dial(300, eb.Addr(200))
	received := 0
	k.Go("recv", func(p *sim.Proc) {
		s := ln.Accept(p)
		for {
			s.Recv(p)
			received++
		}
	})
	m := &Message{Data: make([]byte, 512)}
	round := func() {
		c.Send(m)
		k.RunFor(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if received != 10+101 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d messages received, want %d", received, 10+101)
	}
	if allocs != 3 {
		t.Fatalf("%v allocations per message and ack, want 3: data segment, ack segment, delivered copy", allocs)
	}
}

// One one-fragment datagram: the fragment and the delivered copy.
func TestAllocsDgramOneFragment(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	defer k.Close()
	ca, cb := ea.OpenDgram(100, 0), eb.OpenDgram(100, 0)
	received := 0
	k.Go("recv", func(p *sim.Proc) {
		for {
			cb.Recv(p)
			received++
		}
	})
	m := &Message{Data: make([]byte, 512)}
	round := func() {
		ca.Send(eb.Addr(100), m)
		k.RunFor(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	allocs := testing.AllocsPerRun(100, round)
	if received != 10+101 {
		t.Fatalf("%d datagrams received, want %d", received, 10+101)
	}
	if allocs != 2 {
		t.Fatalf("%v allocations per datagram, want 2: fragment, delivered copy", allocs)
	}
}
