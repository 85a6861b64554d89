package transport

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func pair(queue func() netsim.Qdisc, bps float64) (*sim.Kernel, *netsim.Network, *Endpoint, *Endpoint) {
	k := sim.NewKernel(1)
	n := netsim.New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	cfg := netsim.LinkConfig{Bps: bps, Delay: time.Millisecond}
	cfg2 := cfg
	if queue != nil {
		cfg.Queue = queue()
		cfg2.Queue = queue()
	}
	n.Connect(a, b, cfg, cfg2)
	return k, n, NewEndpoint(n, a), NewEndpoint(n, b)
}

func TestDgramRoundTrip(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	var got *Message
	k.Go("recv", func(p *sim.Proc) { m := cb.Recv(p); got = &m })
	k.Go("send", func(p *sim.Proc) {
		ca.Send(eb.Addr(100), &Message{Data: []byte("ping")})
	})
	k.Run()
	if got == nil || string(got.Data) != "ping" {
		t.Fatalf("got %v", got)
	}
	if got.From != ea.Addr(100) {
		t.Fatalf("From = %v, want %v", got.From, ea.Addr(100))
	}
}

func TestDgramFragmentationReassembly(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	var got *Message
	k.Go("recv", func(p *sim.Proc) { m := cb.Recv(p); got = &m })
	// 10 KB payload object: 7 fragments at 1460 B.
	ca.Send(eb.Addr(100), &Message{Payload: "frame-1", Size: 10 * 1024})
	k.Run()
	if got == nil || got.Payload != "frame-1" || got.Size != 10*1024 {
		t.Fatalf("got %+v", got)
	}
	if cb.recvMsgs != 1 {
		t.Fatalf("ReceivedMessages = %d", cb.recvMsgs)
	}
}

func TestDgramLostFragmentLosesMessage(t *testing.T) {
	// A queue too small for a whole fragmented message forces fragment
	// loss; the message must never be delivered.
	k, _, ea, eb := pair(func() netsim.Qdisc { return netsim.NewFIFO(3000) }, 1e6)
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	var got Message
	var timedOut bool
	k.Go("recv", func(p *sim.Proc) {
		var ok bool
		got, ok = cb.recvQ.GetTimeout(p, 5*time.Second)
		timedOut = !ok
	})
	ca.Send(eb.Addr(100), &Message{Payload: "big", Size: 20 * 1024})
	k.Run()
	if !timedOut {
		t.Fatalf("incomplete message delivered: %+v", got)
	}
}

func TestStreamReliableInOrder(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	lis := eb.Listen(200)
	cli := ea.Dial(300, eb.Addr(200))
	var got []string
	k.Go("server", func(p *sim.Proc) {
		conn := lis.Accept(p)
		for i := 0; i < 3; i++ {
			m := conn.Recv(p)
			got = append(got, string(m.Data))
		}
	})
	for _, s := range []string{"one", "two", "three"} {
		cli.Send(&Message{Data: []byte(s)})
	}
	k.Run()
	if len(got) != 3 || got[0] != "one" || got[1] != "two" || got[2] != "three" {
		t.Fatalf("got %v", got)
	}
}

func TestStreamLargeMessage(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	lis := eb.Listen(200)
	cli := ea.Dial(300, eb.Addr(200))
	var got *Message
	k.Go("server", func(p *sim.Proc) {
		m := lis.Accept(p).Recv(p)
		got = &m
	})
	data := make([]byte, 100*1024)
	for i := range data {
		data[i] = byte(i)
	}
	cli.Send(&Message{Data: data})
	k.Run()
	if got == nil || len(got.Data) != len(data) {
		t.Fatalf("got %v", got)
	}
}

func TestStreamRetransmissionRecoversLoss(t *testing.T) {
	// Push a window burst through a tiny queue: drops are certain, but
	// go-back-N must eventually deliver every message, at a latency cost.
	k, _, ea, eb := pair(func() netsim.Qdisc { return netsim.NewFIFO(4000) }, 1e6)
	lis := eb.Listen(200)
	cli := ea.Dial(300, eb.Addr(200))
	const msgs = 20
	var got int
	k.Go("server", func(p *sim.Proc) {
		conn := lis.Accept(p)
		for i := 0; i < msgs; i++ {
			conn.Recv(p)
			got++
		}
	})
	for i := 0; i < msgs; i++ {
		cli.Send(&Message{Data: make([]byte, 1400)})
	}
	k.RunUntil(60 * time.Second)
	if got != msgs {
		t.Fatalf("delivered %d/%d messages", got, msgs)
	}
	if cli.retransmits == 0 {
		t.Fatal("expected retransmissions through the lossy queue")
	}
}

func TestStreamBidirectional(t *testing.T) {
	k, _, ea, eb := pair(nil, 10e6)
	lis := eb.Listen(200)
	cli := ea.Dial(300, eb.Addr(200))
	var reply *Message
	k.Go("server", func(p *sim.Proc) {
		conn := lis.Accept(p)
		m := conn.Recv(p)
		conn.Send(&Message{Data: append([]byte("re:"), m.Data...)})
	})
	k.Go("client", func(p *sim.Proc) {
		cli.Send(&Message{Data: []byte("hello")})
		m := cli.Recv(p)
		reply = &m
	})
	k.Run()
	if reply == nil || string(reply.Data) != "re:hello" {
		t.Fatalf("reply = %v", reply)
	}
}

func TestStreamTwoClients(t *testing.T) {
	k := sim.NewKernel(1)
	n := netsim.New(k)
	a := n.AddHost("a")
	b := n.AddHost("b")
	c := n.AddHost("c")
	cfg := netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond}
	n.ConnectSym(a, b, cfg)
	n.ConnectSym(c, b, netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond})
	ea, eb, ec := NewEndpoint(n, a), NewEndpoint(n, b), NewEndpoint(n, c)

	lis := eb.Listen(200)
	seen := map[string]bool{}
	k.Go("server", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			conn := lis.Accept(p)
			k.Go("worker", func(p *sim.Proc) {
				m := conn.Recv(p)
				seen[string(m.Data)] = true
			})
		}
	})
	ea.Dial(300, eb.Addr(200)).Send(&Message{Data: []byte("from-a")})
	ec.Dial(300, eb.Addr(200)).Send(&Message{Data: []byte("from-c")})
	k.Run()
	if !seen["from-a"] || !seen["from-c"] {
		t.Fatalf("seen = %v", seen)
	}
}

func TestDgramSetDSCPPropagates(t *testing.T) {
	k, n, ea, eb := pair(nil, 10e6)
	ca := ea.OpenDgram(100, 0)
	cb := eb.OpenDgram(100, 0)
	_ = cb
	ca.SetDSCP(netsim.DSCPEF)
	ca.Send(eb.Addr(100), &Message{Data: []byte("x")})
	k.Run()
	// The flow's packet reached the peer; inspect via link counters.
	st := n.FlowStats(ca.Flow())
	if st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ca.dscp != netsim.DSCPEF {
		t.Fatalf("DSCP = %v", ca.dscp)
	}
}
