package orb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// ftRig is a one-client, N-server fixture for failover tests.
type ftRig struct {
	k           *sim.Kernel
	net         *netsim.Network
	clientHost  *rtos.Host
	client      *ORB
	serverHosts []*rtos.Host
	serverNodes []*netsim.Node
	servers     []*ORB
}

func newFTRig(t *testing.T, nServers int, clientCfg Config) *ftRig {
	t.Helper()
	k := sim.NewKernel(1)
	n := netsim.New(k)
	cn := n.AddHost("client")
	ch := rtos.NewHost(k, "client", rtos.HostConfig{Quantum: time.Millisecond})
	r := &ftRig{k: k, net: n, clientHost: ch, client: New("cli", ch, n, cn, clientCfg)}
	for i := 0; i < nServers; i++ {
		name := fmt.Sprintf("srv%d", i+1)
		sn := n.AddHost(name)
		n.ConnectSym(cn, sn, netsim.LinkConfig{Bps: 100e6, Delay: 100 * time.Microsecond})
		sh := rtos.NewHost(k, name, rtos.HostConfig{Quantum: time.Millisecond})
		r.serverHosts = append(r.serverHosts, sh)
		r.serverNodes = append(r.serverNodes, sn)
		r.servers = append(r.servers, New(name, sh, n, sn, Config{}))
	}
	return r
}

// activate registers an echo servant named "obj" on server i and
// returns its plain reference.
func (r *ftRig) activate(t *testing.T, i int, s Servant) *ObjectRef {
	t.Helper()
	poa, err := r.servers[i].CreatePOA("app", POAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := poa.Activate("obj", s)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// groupRef builds a group reference over the given plain refs.
func groupRef(id uint64, refs ...*ObjectRef) *ObjectRef {
	g := &ObjectRef{Addr: refs[0].Addr, Key: refs[0].Key, Model: refs[0].Model, Group: id}
	for _, r := range refs[1:] {
		g.Alternates = append(g.Alternates, Profile{Addr: r.Addr, Key: r.Key})
	}
	return g
}

// crash silences server i: CPU halted, network interface down.
func (r *ftRig) crash(i int) {
	r.serverHosts[i].Halt()
	r.serverNodes[i].SetDown(true)
}

func TestGroupFailoverOnCrashedPrimary(t *testing.T) {
	r := newFTRig(t, 3, Config{AttemptTimeout: 100 * time.Millisecond})
	var srvs [3]*echoServant
	var refs [3]*ObjectRef
	for i := range srvs {
		srvs[i] = &echoServant{}
		refs[i] = r.activate(t, i, srvs[i])
	}
	ref := groupRef(7, refs[0], refs[1], refs[2])

	r.crash(0)
	var reply []byte
	var callErr error
	var elapsed sim.Time
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		body := cdr.NewEncoder(cdr.LittleEndian)
		body.PutString("hello")
		start := th.Now()
		reply, callErr = r.client.Invoke(th, ref, "work", body.Bytes())
		elapsed = th.Now() - start
	})
	r.k.RunUntil(2 * time.Second)

	if callErr != nil {
		t.Fatalf("group invocation failed: %v", callErr)
	}
	d := cdr.NewDecoder(reply, cdr.LittleEndian)
	if s, _ := d.String(); s != "hello" {
		t.Fatalf("reply = %q, want hello", s)
	}
	if srvs[0].calls != 0 {
		t.Fatalf("crashed primary executed %d requests", srvs[0].calls)
	}
	if srvs[1].calls != 1 {
		t.Fatalf("first backup executed %d requests, want 1", srvs[1].calls)
	}
	// One attempt timeout plus a jittered backoff, but nowhere near two.
	if elapsed < 100*time.Millisecond || elapsed > 250*time.Millisecond {
		t.Fatalf("failover took %v, want ~attempt timeout + backoff", elapsed)
	}
}

func TestGroupExhaustsAttempts(t *testing.T) {
	r := newFTRig(t, 2, Config{AttemptTimeout: 50 * time.Millisecond})
	var refs [2]*ObjectRef
	for i := range refs {
		refs[i] = r.activate(t, i, &echoServant{})
	}
	ref := groupRef(9, refs[0], refs[1])
	r.crash(0)
	r.crash(1)

	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_, callErr = r.client.Invoke(th, ref, "work", nil)
	})
	r.k.RunUntil(5 * time.Second)
	if !errors.Is(callErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout after exhausting attempts", callErr)
	}
}

func TestPlainRefDoesNotRetry(t *testing.T) {
	r := newFTRig(t, 1, Config{})
	ref := r.activate(t, 0, &echoServant{})
	r.crash(0)

	var callErr error
	var elapsed sim.Time
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		start := th.Now()
		_, callErr = r.client.InvokeOpt(th, ref, "work", nil, InvokeOptions{Timeout: 100 * time.Millisecond, Priority: -1})
		elapsed = th.Now() - start
	})
	r.k.RunUntil(2 * time.Second)
	if !errors.Is(callErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", callErr)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("plain ref took %v: it must fail on the first timeout, not retry", elapsed)
	}
}

// TestLocationForward exercises the satellite: a servant returning
// ForwardRequest redirects the client, which transparently re-issues.
func TestLocationForward(t *testing.T) {
	r := newFTRig(t, 2, Config{})
	real := &echoServant{}
	realRef := r.activate(t, 1, real)
	fwd := &echoServant{}
	fwdRef := r.activate(t, 0, ServantFunc(func(req *ServerRequest) ([]byte, error) {
		fwd.calls++
		return nil, &ForwardRequest{Ref: realRef}
	}))

	var reply []byte
	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		body := cdr.NewEncoder(cdr.LittleEndian)
		body.PutString("fwd-me")
		reply, callErr = r.client.Invoke(th, fwdRef, "work", body.Bytes())
	})
	r.k.RunUntil(time.Second)

	if callErr != nil {
		t.Fatalf("forwarded invocation failed: %v", callErr)
	}
	d := cdr.NewDecoder(reply, cdr.LittleEndian)
	if s, _ := d.String(); s != "fwd-me" {
		t.Fatalf("reply = %q, want fwd-me", s)
	}
	if fwd.calls != 1 || real.calls != 1 {
		t.Fatalf("forwarder calls=%d real calls=%d, want 1/1", fwd.calls, real.calls)
	}
}

func TestLocationForwardLoopBounded(t *testing.T) {
	r := newFTRig(t, 1, Config{})
	var self *ObjectRef
	self = r.activate(t, 0, ServantFunc(func(req *ServerRequest) ([]byte, error) {
		return nil, &ForwardRequest{Ref: self}
	}))

	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_, callErr = r.client.Invoke(th, self, "work", nil)
	})
	r.k.RunUntil(time.Second)
	if callErr == nil {
		t.Fatal("self-forward loop did not error")
	}
}

// slowOnceServant burns enough CPU on its first dispatch to outlast the
// client's attempt timeout, then replies instantly.
type slowOnceServant struct {
	calls int
	delay time.Duration
}

func (s *slowOnceServant) Dispatch(req *ServerRequest) ([]byte, error) {
	s.calls++
	if s.calls == 1 {
		req.Thread.Compute(s.delay)
	}
	return req.Body, nil
}

// TestDuplicateSuppression retries one logical invocation back to the
// same (slow but alive) replica: the retry must park on the original
// execution and share its reply, not run the servant twice.
func TestDuplicateSuppression(t *testing.T) {
	r := newFTRig(t, 1, Config{AttemptTimeout: 100 * time.Millisecond})
	srv := &slowOnceServant{delay: 250 * time.Millisecond}
	ref0 := r.activate(t, 0, srv)
	// Both profiles point at the same replica, so the failover retry
	// lands where the original is still executing.
	ref := groupRef(3, ref0, ref0)

	var reply []byte
	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		body := cdr.NewEncoder(cdr.LittleEndian)
		body.PutString("once")
		reply, callErr = r.client.Invoke(th, ref, "work", body.Bytes())
	})
	r.k.RunUntil(2 * time.Second)

	if callErr != nil {
		t.Fatalf("invocation failed: %v", callErr)
	}
	d := cdr.NewDecoder(reply, cdr.LittleEndian)
	if s, _ := d.String(); s != "once" {
		t.Fatalf("reply = %q, want once", s)
	}
	if srv.calls != 1 {
		t.Fatalf("servant executed %d times, want exactly 1 (duplicate suppression)", srv.calls)
	}

	// A fresh logical invocation gets a fresh retention id and executes.
	var err2 error
	r.clientHost.Spawn("caller2", 50, func(th *rtos.Thread) {
		_, err2 = r.client.Invoke(th, ref, "work", nil)
	})
	r.k.RunUntil(4 * time.Second)
	if err2 != nil {
		t.Fatalf("second invocation failed: %v", err2)
	}
	if srv.calls != 2 {
		t.Fatalf("servant executed %d times after second invocation, want 2", srv.calls)
	}
}

// TestFTDedupRefusalNotCached pins that a refusal never poisons the
// at-most-once cache: an FT request refused by a full lane did not
// execute, so the failover loop's next lap — same replica, same
// retention id — must run the servant once the lane has drained, not be
// answered with a replay of the refusal.
func TestFTDedupRefusalNotCached(t *testing.T) {
	r := newFTRig(t, 1, Config{})
	srv := &blockerServant{delay: 30 * time.Millisecond}
	poa, err := r.servers[0].CreatePOA("app", POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1, QueueLimit: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref0, err := poa.Activate("obj", srv)
	if err != nil {
		t.Fatal(err)
	}
	ref := groupRef(3, ref0, ref0)

	// Two oneways saturate the lane for 60ms: one running, one queued.
	r.clientHost.Spawn("flood", 50, func(th *rtos.Thread) {
		_ = r.client.InvokeOneway(th, ref0, "work", nil)
		_ = r.client.InvokeOneway(th, ref0, "work", nil)
	})
	var reply []byte
	var callErr error
	r.clientHost.Spawn("caller", 40, func(th *rtos.Thread) {
		th.Sleep(10 * time.Millisecond) // let the flood land first
		reply, callErr = r.client.Invoke(th, ref, "work", []byte("once"))
	})
	r.k.RunUntil(2 * time.Second)

	if got := poa.Pool().Stats(0).Refused; got == 0 {
		t.Fatal("no attempt was refused: the scenario did not exercise the refusal path")
	}
	if callErr != nil {
		t.Fatalf("invocation failed after the lane drained: %v", callErr)
	}
	if string(reply) != "once" {
		t.Fatalf("reply = %q, want the servant's echo", reply)
	}
	if srv.calls != 3 {
		t.Fatalf("servant executed %d times, want 3 (two flood calls + the request exactly once)", srv.calls)
	}
}

// TestJitterDeterministicPerClient pins the satellite requirement: the
// retry jitter stream is a pure function of the ORB's name.
func TestJitterDeterministicPerClient(t *testing.T) {
	draw := func(name string) []int64 {
		k := sim.NewKernel(1)
		n := netsim.New(k)
		nd := n.AddHost(name)
		h := rtos.NewHost(k, name, rtos.HostConfig{})
		o := New(name, h, n, nd, Config{})
		out := make([]int64, 8)
		for i := range out {
			out[i] = o.jrand.Int63n(1 << 20)
		}
		return out
	}
	a1, a2, b := draw("alpha"), draw("alpha"), draw("beta")
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same-named clients drew different jitter: %v vs %v", a1, a2)
	}
	if reflect.DeepEqual(a1, b) {
		t.Fatalf("differently-named clients drew identical jitter: %v", a1)
	}
}

// TestRefRoundTripProperty is the property test: any reference the
// generator can produce survives String → ParseRef unchanged.
func TestRefRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."
	randKey := func() []byte {
		part := func() string {
			n := 1 + rng.Intn(8)
			b := make([]byte, n)
			for i := range b {
				b[i] = chars[rng.Intn(len(chars))]
			}
			return string(b)
		}
		return []byte(part() + "/" + part())
	}
	randAddr := func() netsim.Addr {
		return netsim.Addr{Node: netsim.NodeID(rng.Intn(1000)), Port: uint16(1 + rng.Intn(65535))}
	}
	for i := 0; i < 500; i++ {
		ref := &ObjectRef{
			Addr:           randAddr(),
			Key:            randKey(),
			Model:          rtcorba.ClientPropagated,
			ServerPriority: rtcorba.Priority(rng.Intn(32768)),
		}
		if rng.Intn(2) == 1 {
			ref.Model = rtcorba.ServerDeclared
		}
		if rng.Intn(2) == 1 {
			ref.Group = rng.Uint64()
			if ref.Group == 0 {
				ref.Group = 1
			}
			for j, n := 0, rng.Intn(4); j < n; j++ {
				ref.Alternates = append(ref.Alternates, Profile{Addr: randAddr(), Key: randKey()})
			}
		}
		parsed, err := ParseRef(ref.String())
		if err != nil {
			t.Fatalf("iter %d: ParseRef(%q): %v", i, ref.String(), err)
		}
		if !reflect.DeepEqual(ref, parsed) {
			t.Fatalf("iter %d: round trip mismatch:\n in: %#v\nout: %#v\nstr: %s", i, ref, parsed, ref.String())
		}
	}
}
