//go:build !race

package transport

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The network carries a transport's segments, acks and fragments in
// packets from its free list, their headers by value in the packet and
// the sender's message as the payload; the sender's window and the
// receiver's queue hold values. So once queues, rings, the event heap and
// the free list have reached their working size a message costs the
// transport nothing. (The race detector allocates on its own account, so
// the pins exist only in an ordinary build.)

// One one-segment stream message and its ack: no allocation.
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
	if allocs != 0 {
		t.Fatalf("%v allocations per message and ack, want 0", allocs)
	}
}

// One one-fragment datagram: no allocation.
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
	if allocs != 0 {
		t.Fatalf("%v allocations per datagram, want 0", allocs)
	}
}

// One four-fragment datagram: no allocation, as each connection recycles
// its reassembly buffers.
func TestAllocsDgramMultiFragment(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	defer k.Close()
	ca, cb := ea.OpenDgram(100, 0), eb.OpenDgram(100, 0)
	received := 0
	k.Go("recv", func(p *sim.Proc) {
		for {
			if m := cb.Recv(p); len(m.Data) != 3*maxPayload+100 {
				t.Errorf("received %d bytes, want %d", len(m.Data), 3*maxPayload+100)
			}
			received++
		}
	})
	m := &Message{Data: make([]byte, 3*maxPayload+100)}
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
	if allocs != 0 {
		t.Fatalf("%v allocations per four-fragment datagram, want 0", allocs)
	}
}
