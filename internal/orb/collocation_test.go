package orb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/transport"
)

func TestCollocatedInvocation(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{Model: rtcorba.ClientPropagated})
	ref, _ := poa.Activate("echo", srv)

	// Invoke from a thread on the SERVER host through the server's own
	// ORB: the call must complete without touching the network.
	var reply []byte
	var err error
	r.serverHost.Spawn("local", 10, func(th *rtos.Thread) {
		_ = r.server.Current(th).SetPriority(22000)
		reply, err = r.server.Invoke(th, ref, "op", []byte{1, 2, 3})
	})
	r.k.RunUntil(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 3 {
		t.Fatalf("reply = %v", reply)
	}
	if srv.calls != 1 || srv.lastPrio != 22000 {
		t.Fatalf("servant saw calls=%d prio=%d", srv.calls, srv.lastPrio)
	}
	// No network flow stats should exist for a collocated call: the
	// server ORB opened no client connections.
	if len(r.server.conns) != 0 {
		t.Fatalf("collocated call opened %d connections", len(r.server.conns))
	}
}

func TestCollocationPreservesServerDeclared(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{
		Model:          rtcorba.ServerDeclared,
		ServerPriority: 31000,
	})
	ref, _ := poa.Activate("echo", srv)
	r.serverHost.Spawn("local", 10, func(th *rtos.Thread) {
		_ = r.server.Current(th).SetPriority(50)
		_, _ = r.server.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if srv.lastPrio != 31000 {
		t.Fatalf("collocated server-declared dispatch at %d, want 31000", srv.lastPrio)
	}
}

func TestCollocationDisabledUsesTransport(t *testing.T) {
	r := newRig(t, Config{}, Config{DisableCollocation: true})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("echo", srv)
	var err error
	r.serverHost.Spawn("local", 10, func(th *rtos.Thread) {
		_, err = r.server.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if srv.calls != 1 {
		t.Fatalf("calls = %d", srv.calls)
	}
	// The loopback path opened a real connection.
	if len(r.server.conns) == 0 {
		t.Fatal("no connection despite DisableCollocation")
	}
}

func TestCollocatedObjectNotExist(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	_, _ = r.server.CreatePOA("app", POAConfig{})
	bogus := &ObjectRef{Addr: r.server.Addr(), Key: []byte("app/ghost")}
	var err error
	r.serverHost.Spawn("local", 10, func(th *rtos.Thread) {
		_, err = r.server.Invoke(th, bogus, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if !errors.Is(err, ErrObjectNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestCollocatedOneway(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("echo", srv)
	r.serverHost.Spawn("local", 10, func(th *rtos.Thread) {
		if err := r.server.InvokeOneway(th, ref, "fire", nil); err != nil {
			t.Errorf("oneway: %v", err)
		}
	})
	r.k.RunUntil(time.Second)
	if srv.calls != 1 {
		t.Fatalf("calls = %d", srv.calls)
	}
}

func TestCancelRequestAbandonsQueuedWork(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	// Single-threaded lane: the first (slow) request occupies the
	// thread; the second is queued, times out client-side, and must be
	// abandoned rather than dispatched.
	poa, _ := r.server.CreatePOA("app", POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1}},
	})
	calls := 0
	slow := ServantFunc(func(req *ServerRequest) ([]byte, error) {
		calls++
		req.Thread.Sleep(2 * time.Second)
		return nil, nil
	})
	ref, _ := poa.Activate("slow", slow)
	var err2 error
	r.clientHost.Spawn("caller1", 10, func(th *rtos.Thread) {
		_, _ = r.client.Invoke(th, ref, "op", nil)
	})
	r.clientHost.Spawn("caller2", 10, func(th *rtos.Thread) {
		th.Sleep(10 * time.Millisecond)
		_, err2 = r.client.InvokeOpt(th, ref, "op", nil, InvokeOptions{Timeout: 200 * time.Millisecond, Priority: -1})
	})
	r.k.RunUntil(10 * time.Second)
	if !errors.Is(err2, ErrTimeout) {
		t.Fatalf("second call err = %v, want timeout", err2)
	}
	if calls != 1 {
		t.Fatalf("servant dispatched %d times; cancelled request was not abandoned", calls)
	}
}

func TestLocateRemote(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	if _, err := poa.Activate("real", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	// A bare GIOP peer on the client host asks the server ORB where each
	// key lives.
	conn := transport.NewEndpoint(r.net, r.client.ep.Node()).Dial(5555, r.server.Addr())
	var got []giop.LocateStatus
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		for i, key := range []string{"app/real", "app/ghost"} {
			req := &giop.LocateRequest{RequestID: uint32(i + 1), ObjectKey: []byte(key)}
			conn.Send(&transport.Message{Data: req.Marshal(cdr.LittleEndian)})
			msg, err := giop.Decode(conn.Recv(th.Proc()).Data)
			rep, ok := msg.(*giop.LocateReply)
			if err != nil || !ok || rep.RequestID != req.RequestID {
				t.Errorf("locate %s: %v, %#v", key, err, msg)
				return
			}
			got = append(got, rep.Status)
		}
	})
	r.k.RunUntil(time.Second)
	if len(got) != 2 || got[0] != giop.LocateObjectHere || got[1] != giop.LocateUnknownObject {
		t.Fatalf("locate statuses = %v, want [OBJECT_HERE UNKNOWN_OBJECT]", got)
	}
}
