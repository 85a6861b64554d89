package orb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// rig is a two-host client/server fixture.
type rig struct {
	k          *sim.Kernel
	net        *netsim.Network
	clientHost *rtos.Host
	serverHost *rtos.Host
	client     *ORB
	server     *ORB
}

func newRig(t *testing.T, clientCfg, serverCfg Config) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	n := netsim.New(k)
	cn := n.AddHost("client")
	sn := n.AddHost("server")
	n.ConnectSym(cn, sn, netsim.LinkConfig{Bps: 100e6, Delay: 100 * time.Microsecond})
	ch := rtos.NewHost(k, "client", rtos.HostConfig{Quantum: time.Millisecond})
	sh := rtos.NewHost(k, "server", rtos.HostConfig{Quantum: time.Millisecond})
	return &rig{
		k:          k,
		net:        n,
		clientHost: ch,
		serverHost: sh,
		client:     New("cli", ch, n, cn, clientCfg),
		server:     New("srv", sh, n, sn, serverCfg),
	}
}

// echoServant replies with the request body and records the dispatch.
type echoServant struct {
	calls      int
	lastOp     string
	lastPrio   rtcorba.Priority
	lastNative rtos.Priority
}

func (s *echoServant) Dispatch(req *ServerRequest) ([]byte, error) {
	s.calls++
	s.lastOp = req.Op
	s.lastPrio = req.Priority
	s.lastNative = req.Thread.Priority()
	return req.Body, nil
}

func TestInvokeRoundTrip(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, err := r.server.CreatePOA("app", POAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := poa.Activate("echo", srv)
	if err != nil {
		t.Fatal(err)
	}

	var reply []byte
	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		body := cdr.NewEncoder(cdr.LittleEndian)
		body.PutString("payload")
		reply, callErr = r.client.Invoke(th, ref, "echo_op", body.Bytes())
	})
	r.k.RunUntil(time.Second)
	if callErr != nil {
		t.Fatal(callErr)
	}
	d := cdr.NewDecoder(reply, cdr.LittleEndian)
	if s, err := d.String(); err != nil || s != "payload" {
		t.Fatalf("reply = %q, %v", s, err)
	}
	if srv.calls != 1 || srv.lastOp != "echo_op" {
		t.Fatalf("servant saw %d calls, op %q", srv.calls, srv.lastOp)
	}
}

func TestPriorityPropagation(t *testing.T) {
	// The client sets a CORBA priority; the server must dispatch at that
	// priority mapped to ITS native range (client-propagated model).
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{Model: rtcorba.ClientPropagated})
	ref, _ := poa.Activate("echo", srv)

	const corbaPrio = 20000
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		if err := r.client.Current(th).SetPriority(corbaPrio); err != nil {
			t.Errorf("SetPriority: %v", err)
			return
		}
		if _, err := r.client.Invoke(th, ref, "op", nil); err != nil {
			t.Errorf("Invoke: %v", err)
		}
	})
	r.k.RunUntil(time.Second)
	if srv.lastPrio != corbaPrio {
		t.Fatalf("dispatch CORBA priority = %d, want %d", srv.lastPrio, corbaPrio)
	}
	wantNative, _ := r.server.MappingManager().ToNative(corbaPrio, r.serverHost.Priorities())
	if srv.lastNative != wantNative {
		t.Fatalf("dispatch native priority = %d, want %d", srv.lastNative, wantNative)
	}
}

func TestServerDeclaredModel(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{
		Model:          rtcorba.ServerDeclared,
		ServerPriority: 30000,
	})
	ref, _ := poa.Activate("echo", srv)
	if ref.Model != rtcorba.ServerDeclared || ref.ServerPriority != 30000 {
		t.Fatalf("ref components = %+v", ref)
	}
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_ = r.client.Current(th).SetPriority(100) // must be ignored by server
		_, _ = r.client.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if srv.lastPrio != 30000 {
		t.Fatalf("server-declared dispatch priority = %d, want 30000", srv.lastPrio)
	}
}

func TestOnewayInvocation(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("sink", srv)
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		if err := r.client.InvokeOneway(th, ref, "fire", nil); err != nil {
			t.Errorf("oneway: %v", err)
		}
	})
	r.k.RunUntil(time.Second)
	if srv.calls != 1 {
		t.Fatalf("servant calls = %d", srv.calls)
	}
}

func TestObjectNotExist(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	_, _ = poa.Activate("real", &echoServant{})
	bogus := &ObjectRef{Addr: r.server.Addr(), Key: []byte("app/ghost")}
	var err error
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_, err = r.client.Invoke(th, bogus, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if !errors.Is(err, ErrObjectNotExist) {
		t.Fatalf("err = %v, want OBJECT_NOT_EXIST", err)
	}
}

func TestSystemExceptionFromServant(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	boom := ServantFunc(func(req *ServerRequest) ([]byte, error) {
		return nil, &SystemException{ID: "IDL:omg.org/CORBA/NO_RESOURCES:1.0", Minor: 7}
	})
	ref, _ := poa.Activate("boom", boom)
	var err error
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_, err = r.client.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	var se *SystemException
	if !errors.As(err, &se) || se.Minor != 7 {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeTimeout(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	slow := ServantFunc(func(req *ServerRequest) ([]byte, error) {
		req.Thread.Sleep(10 * time.Second)
		return nil, nil
	})
	ref, _ := poa.Activate("slow", slow)
	var err error
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_, err = r.client.InvokeOpt(th, ref, "op", nil, InvokeOptions{Timeout: 100 * time.Millisecond, Priority: -1})
	})
	r.k.RunUntil(time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestDSCPFollowsNetworkMapping(t *testing.T) {
	clientCfg := Config{
		NetMapping: rtcorba.BandedDSCPMapping{Bands: []rtcorba.DSCPBand{
			{From: 0, DSCP: netsim.DSCPBestEffort},
			{From: 20000, DSCP: netsim.DSCPEF},
		}},
	}
	r := newRig(t, clientCfg, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("echo", srv)

	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_ = r.client.Current(th).SetPriority(25000)
		_, _ = r.client.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	conn := r.client.conns[r.server.Addr()]
	if conn == nil {
		t.Fatal("no client connection")
	}
	if conn.DSCP() != netsim.DSCPEF {
		t.Fatalf("connection DSCP = %v, want EF", conn.DSCP())
	}
}

func TestConcurrentClients(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 4}},
	})
	ref, _ := poa.Activate("echo", srv)
	done := 0
	for i := 0; i < 10; i++ {
		r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
			for j := 0; j < 5; j++ {
				if _, err := r.client.Invoke(th, ref, "op", nil); err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
			}
			done++
		})
	}
	r.k.RunUntil(10 * time.Second)
	if done != 10 {
		t.Fatalf("%d/10 callers completed", done)
	}
	if srv.calls != 50 {
		t.Fatalf("servant calls = %d, want 50", srv.calls)
	}
}

func TestSentAtTimestampPropagates(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	var sentAt, dispatchedAt sim.Time
	s := ServantFunc(func(req *ServerRequest) ([]byte, error) {
		sentAt = req.SentAt
		dispatchedAt = req.Now()
		return nil, nil
	})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("t", s)
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		th.Sleep(50 * time.Millisecond)
		_ = r.client.InvokeOneway(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if sentAt < 50*time.Millisecond {
		t.Fatalf("SentAt = %v, want >= 50ms", sentAt)
	}
	if dispatchedAt <= sentAt {
		t.Fatalf("dispatch at %v not after send at %v", dispatchedAt, sentAt)
	}
}

func TestRefStringRoundTrip(t *testing.T) {
	ref := &ObjectRef{
		Addr:           netsim.Addr{Node: 3, Port: 2809},
		Key:            []byte("app/echo"),
		Model:          rtcorba.ServerDeclared,
		ServerPriority: 12345,
	}
	s := ref.String()
	got, err := ParseRef(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != ref.Addr || string(got.Key) != "app/echo" ||
		got.Model != ref.Model || got.ServerPriority != ref.ServerPriority {
		t.Fatalf("round trip: %+v -> %q -> %+v", ref, s, got)
	}
}

func TestParseRefRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"", "ior:xxx", "sior:", "sior:node=x;port=1;key=k",
		"sior:node=1;port=99999999;key=k", "sior:node=1;port=1",
		"sior:node=1;port=1;key=k;model=weird", "sior:bogus=1;key=k",
	} {
		if _, err := ParseRef(s); err == nil {
			t.Errorf("ParseRef(%q) succeeded", s)
		}
	}
}

func TestPOAValidation(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	if _, err := r.server.CreatePOA("bad/name", POAConfig{}); err == nil {
		t.Fatal("POA name with slash accepted")
	}
	poa, err := r.server.CreatePOA("app", POAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.server.CreatePOA("app", POAConfig{}); err == nil {
		t.Fatal("duplicate POA accepted")
	}
	if _, err := poa.Activate("bad/id", &echoServant{}); err == nil {
		t.Fatal("object id with slash accepted")
	}
	if _, err := poa.Activate("x", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	if _, err := poa.Activate("x", &echoServant{}); err == nil {
		t.Fatal("duplicate activation accepted")
	}
}
