package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The interop regression tests pin the tentpole guarantee: the wire
// plane and the simulated ORB speak byte-identical GIOP. A request
// built exactly the way internal/orb builds one (same context order,
// same encodings, either byte order) must dispatch through the wire
// server, and a wire client's bytes must decode through giop.Decode —
// the sim ORB's entire inbound path — with every context parsing.

// simORBRequest builds request bytes the way orb.invokeOnce does:
// priority context, then timestamp, then deadline, marshalled in the
// ORB's configured byte order.
func simORBRequest(id uint32, prio int16, deadline int64, order cdr.ByteOrder) []byte {
	req := &giop.Request{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        []byte("app/echo"),
		Operation:        "echo",
		ServiceContexts: []giop.ServiceContext{
			giop.PriorityContext(prio, order),
			giop.TimestampContext(time.Now().UnixNano(), order),
			giop.DeadlineContext(deadline, order),
		},
		Body: []byte("sim orb payload"),
	}
	return req.Marshal(order)
}

// trickle writes buf to w in tiny chunks, forcing the reader through
// split-across-read framing like a congested TCP stream.
func trickle(t *testing.T, w net.Conn, buf []byte, chunk int) {
	t.Helper()
	for off := 0; off < len(buf); off += chunk {
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		if _, err := w.Write(buf[off:end]); err != nil {
			t.Errorf("trickle write: %v", err)
			return
		}
	}
}

// TestInteropSimBytesIntoWireServer feeds sim-ORB-shaped request bytes
// (both byte orders, dribbled 3 bytes at a time) straight into a wire
// server's connection reader and checks the servant sees the decoded
// QoS contexts and the reply frames back correctly.
func TestInteropSimBytesIntoWireServer(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		srv, err := NewServer(ServerConfig{ByteOrder: order})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var seen *Request
		srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
			mu.Lock()
			seen = req
			mu.Unlock()
			return req.Body, nil
		}))

		cliEnd, srvEnd := net.Pipe()
		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			srv.ServeConn(srvEnd)
		}()

		deadline := time.Now().Add(time.Minute).UnixNano()
		wire := simORBRequest(42, 9000, deadline, order)
		go trickle(t, cliEnd, wire, 3)

		frame, err := giop.ReadFrame(cliEnd, 0, nil)
		if err != nil {
			t.Fatalf("order %v: reading reply frame: %v", order, err)
		}
		msg, err := giop.Decode(frame)
		if err != nil {
			t.Fatalf("order %v: decoding reply: %v", order, err)
		}
		rep, ok := msg.(*giop.Reply)
		if !ok {
			t.Fatalf("order %v: got %v, want Reply", order, msg.Type())
		}
		if rep.RequestID != 42 {
			t.Errorf("order %v: reply id %d, want 42", order, rep.RequestID)
		}
		if rep.Status != giop.StatusNoException {
			t.Errorf("order %v: reply status %v", order, rep.Status)
		}
		if !bytes.Equal(rep.Body, []byte("sim orb payload")) {
			t.Errorf("order %v: echoed body %q", order, rep.Body)
		}

		mu.Lock()
		req := seen
		mu.Unlock()
		if req == nil {
			t.Fatalf("order %v: servant never ran", order)
		}
		if req.Priority != 9000 {
			t.Errorf("order %v: priority %d, want 9000", order, req.Priority)
		}
		if req.Deadline.UnixNano() != deadline {
			t.Errorf("order %v: deadline %d, want %d", order, req.Deadline.UnixNano(), deadline)
		}

		cliEnd.Close()
		srv.Shutdown(time.Second)
		readers.Wait()
	}
}

// TestInteropExpiredDeadlineShedsAsTimeout drives a request whose
// deadline context already expired through the raw server path: the
// lane must shed it at dequeue with a TIMEOUT system exception — the
// same bytes the simulated ORB's shed path produces.
func TestInteropExpiredDeadlineShedsAsTimeout(t *testing.T) {
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		t.Error("servant ran for an expired-deadline request")
		return nil, nil
	}))
	cliEnd, srvEnd := net.Pipe()
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		srv.ServeConn(srvEnd)
	}()

	expired := time.Now().Add(-time.Second).UnixNano()
	wire := simORBRequest(7, 0, expired, cdr.LittleEndian)
	go trickle(t, cliEnd, wire, len(wire))

	frame, err := giop.ReadFrame(cliEnd, 0, nil)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	msg, err := giop.Decode(frame)
	if err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	rep, ok := msg.(*giop.Reply)
	if !ok || rep.Status != giop.StatusSystemException {
		t.Fatalf("got %#v, want SystemException reply", msg)
	}
	order := cdr.BigEndian
	if frame[6]&1 == 1 {
		order = cdr.LittleEndian
	}
	if err := decodeException(rep.Body, order); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("exception decodes to %v, want ErrDeadlineExpired (TIMEOUT)", err)
	}
	cliEnd.Close()
	srv.Shutdown(time.Second)
	readers.Wait()
}

// TestInteropWireClientBytesIntoSimDecoder plays the sim ORB's server
// side by hand: read the wire client's request with the framer, decode
// it with giop.Decode (the sim ORB's inbound path), check every QoS
// context parses with the giop helpers, and answer with a plain
// marshalled Reply the client must accept.
func TestInteropWireClientBytesIntoSimDecoder(t *testing.T) {
	cliEnd, simEnd := net.Pipe()
	cli, err := NewClient(ClientConfig{
		Addr: "simorb",
		Dial: func() (net.Conn, error) { return cliEnd, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	type result struct {
		body []byte
		err  error
	}
	done := make(chan result, 1)
	before := time.Now()
	go func() {
		body, err := cli.Invoke("app/echo", "frob", []byte("from wire client"), CallOptions{
			Priority: 123, Timeout: 5 * time.Second,
		})
		done <- result{body, err}
	}()

	// Sim-ORB side: frame, decode, verify contexts.
	frame, err := giop.ReadFrame(simEnd, 0, nil)
	if err != nil {
		t.Fatalf("framing client request: %v", err)
	}
	msg, err := giop.Decode(frame)
	if err != nil {
		t.Fatalf("sim decoder rejected wire client bytes: %v", err)
	}
	req, ok := msg.(*giop.Request)
	if !ok {
		t.Fatalf("got %v, want Request", msg.Type())
	}
	if string(req.ObjectKey) != "app/echo" || req.Operation != "frob" {
		t.Errorf("decoded %s/%s", req.ObjectKey, req.Operation)
	}
	if !bytes.Equal(req.Body, []byte("from wire client")) {
		t.Errorf("decoded body %q", req.Body)
	}
	data, ok := giop.FindContext(req.ServiceContexts, giop.ServiceRTCorbaPriority)
	if !ok {
		t.Fatal("no priority context")
	}
	if p, err := giop.ParsePriorityContext(data); err != nil || p != 123 {
		t.Errorf("priority = %d (%v), want 123", p, err)
	}
	data, ok = giop.FindContext(req.ServiceContexts, giop.ServiceDeadline)
	if !ok {
		t.Fatal("no deadline context")
	}
	exp, err := giop.ParseDeadlineContext(data)
	if err != nil {
		t.Fatalf("deadline context: %v", err)
	}
	if at := time.Unix(0, exp); at.Before(before) || at.After(before.Add(10*time.Second)) {
		t.Errorf("deadline %v not ~5s after %v", at, before)
	}
	data, ok = giop.FindContext(req.ServiceContexts, giop.ServiceInvocationTimestamp)
	if !ok {
		t.Fatal("no timestamp context")
	}
	if _, err := giop.ParseTimestampContext(data); err != nil {
		t.Errorf("timestamp context: %v", err)
	}

	// Answer like the sim ORB does — in the opposite byte order, to pin
	// the client's order handling.
	reply := (&giop.Reply{
		RequestID: req.RequestID,
		Status:    giop.StatusNoException,
		Body:      []byte("sim says hi"),
	}).Marshal(cdr.BigEndian)
	trickle(t, simEnd, reply, 5)

	r := <-done
	if r.err != nil {
		t.Fatalf("client invoke: %v", r.err)
	}
	if !bytes.Equal(r.body, []byte("sim says hi")) {
		t.Fatalf("client got %q", r.body)
	}
}

// The differential FT script: one sequence of raw GIOP messages — first
// sighting, duplicate after completion, duplicate in flight, refused then
// retried, cancelled then retried — is played against the simulated ORB
// and against the wire server, both configured with one lane of one
// worker and a queue of one. The two planes share the at-most-once cache
// (internal/dedup) and the exception vocabulary (internal/giop), so every
// scripted request must get the same reply status and the same body
// bytes from both.

// ftPlane is what the script needs of a server under test.
type ftPlane interface {
	// send writes one GIOP message on connection c (0 or 1).
	send(c int, m giop.Message)
	// next returns the next message the server wrote on connection c,
	// nil when none arrives in time.
	next(c int) giop.Message
	// awaitGate returns once the gate servant is executing a request;
	// release lets that request finish.
	awaitGate()
	release()
	// echoes returns how many requests the echo servant executed.
	echoes() int
}

type ftOutcome struct {
	Step   string
	Status giop.ReplyStatus
	Body   string
}

// ftScript plays the script and returns the outcome of every scripted FT
// request, in script order.
func ftScript(t *testing.T, p ftPlane) []ftOutcome {
	stash := [2]map[uint32]*giop.Reply{{}, {}}
	// reply returns the reply to request id on connection c, stashing
	// replies to other requests read on the way.
	reply := func(c int, id uint32) *giop.Reply {
		for {
			if r, ok := stash[c][id]; ok {
				return r
			}
			switch m := p.next(c).(type) {
			case *giop.Reply:
				stash[c][m.RequestID] = m
			case nil:
				t.Errorf("no reply to request %d on connection %d", id, c)
				return &giop.Reply{}
			}
		}
	}
	// barrier returns once the server has handled everything sent on
	// connection c so far: each plane reads a connection in order, so the
	// answer to a LocateRequest proves it.
	barrier := func(c int, id uint32) {
		p.send(c, &giop.LocateRequest{RequestID: id, ObjectKey: []byte("app/echo")})
		for {
			switch m := p.next(c).(type) {
			case *giop.Reply:
				stash[c][m.RequestID] = m
			case *giop.LocateReply:
				return
			case nil:
				t.Errorf("no LocateReply on connection %d", c)
				return
			}
		}
	}
	request := func(id uint32, key, body string, ft *giop.FTKey) *giop.Request {
		req := &giop.Request{
			RequestID: id, ResponseExpected: true,
			ObjectKey: []byte(key), Operation: "op", Body: []byte(body),
		}
		if ft != nil {
			req.ServiceContexts = []giop.ServiceContext{
				giop.FTRequestContext(ft.Group, ft.Client, ft.Retention, cdr.LittleEndian),
			}
		}
		return req
	}
	key := func(n uint32) *giop.FTKey { return &giop.FTKey{Group: 1, Client: 7, Retention: n} }

	var out []ftOutcome
	record := func(step string, c int, id uint32) {
		r := reply(c, id)
		out = append(out, ftOutcome{step, r.Status, string(r.Body)})
	}

	// First sighting executes; a duplicate after completion — another
	// connection, another request id, another body — replays its bytes.
	p.send(0, request(1, "app/echo", "first", key(1)))
	record("first", 0, 1)
	p.send(1, request(2, "app/echo", "not the first body", key(1)))
	record("duplicate after done", 1, 2)

	// A duplicate arriving while the original executes parks and gets the
	// original's outcome.
	p.send(0, request(3, "app/gate", "gated", key(2)))
	p.awaitGate()
	p.send(1, request(4, "app/gate", "not the gated body", key(2)))
	barrier(1, 100)
	p.release()
	record("original in flight", 0, 3)
	record("duplicate in flight", 1, 4)

	// With the worker held and the queue full the request is refused; it
	// never executed, so its retry does once the lane has drained.
	p.send(0, request(5, "app/gate", "hold", nil))
	p.awaitGate()
	p.send(0, request(6, "app/echo", "fills the queue", nil))
	p.send(0, request(7, "app/echo", "third", key(3)))
	record("refused", 0, 7)
	p.release()
	reply(0, 5)
	reply(0, 6)
	p.send(1, request(8, "app/echo", "third", key(3)))
	record("retry after refusal", 1, 8)

	// A queued request cancelled before it ran is forgotten too.
	p.send(0, request(9, "app/gate", "hold", nil))
	p.awaitGate()
	p.send(0, request(10, "app/echo", "fourth", key(4)))
	p.send(0, &giop.CancelRequest{RequestID: 10})
	barrier(0, 101)
	p.release()
	reply(0, 9)
	p.send(1, request(11, "app/echo", "fourth", key(4)))
	record("retry after cancel", 1, 11)

	// first, the queue filler, third and fourth: each exactly once.
	if n := p.echoes(); n != 4 {
		t.Errorf("echo servant executed %d requests, want 4", n)
	}
	return out
}

// wireFTPlane runs the script against a wire Server over net.Pipe.
type wireFTPlane struct {
	t       *testing.T
	conns   [2]net.Conn
	inbox   [2]chan giop.Message
	entered chan struct{}
	tokens  chan struct{}
	execs   atomic.Int64
}

func newWireFTPlane(t *testing.T) *wireFTPlane {
	leakCheck(t)
	p := &wireFTPlane{t: t, entered: make(chan struct{}, 8), tokens: make(chan struct{}, 8)}
	srv, err := NewServer(ServerConfig{
		ByteOrder: cdr.LittleEndian,
		Lanes:     []LaneConfig{{Workers: 1, QueueLimit: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		p.execs.Add(1)
		return req.Body, nil
	}))
	quit := make(chan struct{})
	srv.Register("app/gate", HandlerFunc(func(req *Request) ([]byte, error) {
		p.entered <- struct{}{}
		select {
		case <-p.tokens:
		case <-quit:
		}
		return req.Body, nil
	}))
	var wg sync.WaitGroup
	for c := range p.conns {
		cliEnd, srvEnd := net.Pipe()
		p.conns[c] = cliEnd
		// Sized for every message the script can have outstanding, so the
		// reader never blocks the server's writes.
		inbox := make(chan giop.Message, 16)
		p.inbox[c] = inbox
		wg.Add(2)
		go func() {
			defer wg.Done()
			srv.ServeConn(srvEnd)
		}()
		go func() {
			defer wg.Done()
			defer close(inbox)
			for {
				frame, err := giop.ReadFrame(cliEnd, 0, nil)
				if err != nil {
					return
				}
				if m, err := giop.Decode(frame); err == nil {
					inbox <- m
				}
			}
		}()
	}
	t.Cleanup(func() {
		close(quit)
		for _, c := range p.conns {
			c.Close()
		}
		srv.Shutdown(2 * time.Second)
		wg.Wait()
	})
	return p
}

func (p *wireFTPlane) send(c int, m giop.Message) {
	if _, err := p.conns[c].Write(m.Marshal(cdr.LittleEndian)); err != nil {
		p.t.Errorf("wire: write on connection %d: %v", c, err)
	}
}

func (p *wireFTPlane) next(c int) giop.Message {
	select {
	case m := <-p.inbox[c]:
		return m
	case <-time.After(3 * time.Second):
		return nil
	}
}

func (p *wireFTPlane) awaitGate() {
	select {
	case <-p.entered:
	case <-time.After(3 * time.Second):
		p.t.Error("wire: gate servant never ran")
	}
}

func (p *wireFTPlane) release()    { p.tokens <- struct{}{} }
func (p *wireFTPlane) echoes() int { return int(p.execs.Load()) }

// simFTPlane runs the script against a simulated ORB: the script is a
// thread on a client host that speaks raw GIOP over transport streams.
type simFTPlane struct {
	th     *rtos.Thread
	conns  [2]*transport.StreamConn
	gate   *sim.Signal
	tokens int
	execs  int
}

func (p *simFTPlane) send(c int, m giop.Message) {
	p.conns[c].SendWait(p.th.Proc(), &transport.Message{Data: m.Marshal(cdr.LittleEndian)})
}

func (p *simFTPlane) next(c int) giop.Message {
	m, ok := p.conns[c].RecvTimeout(p.th.Proc(), time.Second)
	if !ok {
		return nil
	}
	msg, err := giop.Decode(m.Data)
	if err != nil {
		return nil
	}
	return msg
}

// awaitGate: a virtual millisecond is ample for a request already sent
// to cross the 100µs link and reach the servant.
func (p *simFTPlane) awaitGate()  { p.th.Sleep(time.Millisecond) }
func (p *simFTPlane) release()    { p.tokens++; p.gate.Broadcast() }
func (p *simFTPlane) echoes() int { return p.execs }

// runSimFTScript builds the simulated deployment and plays the script
// inside it.
func runSimFTScript(t *testing.T) []ftOutcome {
	k := sim.NewKernel(1)
	n := netsim.New(k)
	cn, sn := n.AddHost("client"), n.AddHost("server")
	n.ConnectSym(cn, sn, netsim.LinkConfig{Bps: 100e6, Delay: 100 * time.Microsecond})
	clientHost := rtos.NewHost(k, "client", rtos.HostConfig{Quantum: time.Millisecond})
	serverHost := rtos.NewHost(k, "server", rtos.HostConfig{Quantum: time.Millisecond})
	srv := orb.New("srv", serverHost, n, sn, orb.Config{ByteOrder: cdr.LittleEndian})
	poa, err := srv.CreatePOA("app", orb.POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1, QueueLimit: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &simFTPlane{gate: sim.NewSignal()}
	if _, err := poa.Activate("echo", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		p.execs++
		return req.Body, nil
	})); err != nil {
		t.Fatal(err)
	}
	if _, err := poa.Activate("gate", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		for p.tokens == 0 {
			p.gate.Wait(req.Thread.Proc())
		}
		p.tokens--
		return req.Body, nil
	})); err != nil {
		t.Fatal(err)
	}

	ep := transport.NewEndpoint(n, cn)
	var out []ftOutcome
	clientHost.Spawn("script", 50, func(th *rtos.Thread) {
		p.th = th
		for c := range p.conns {
			p.conns[c] = ep.Dial(cn.EphemeralPort(), srv.Addr())
		}
		out = ftScript(t, p)
	})
	k.RunUntil(time.Minute)
	if out == nil {
		t.Fatal("sim: the script did not finish")
	}
	return out
}

func TestInteropFTDedupDifferential(t *testing.T) {
	shed := string(giop.EncodeSystemException(giop.ExcTransient, giop.MinorShed, cdr.LittleEndian))
	want := []ftOutcome{
		{"first", giop.StatusNoException, "first"},
		{"duplicate after done", giop.StatusNoException, "first"},
		{"original in flight", giop.StatusNoException, "gated"},
		{"duplicate in flight", giop.StatusNoException, "gated"},
		{"refused", giop.StatusSystemException, shed},
		{"retry after refusal", giop.StatusNoException, "third"},
		{"retry after cancel", giop.StatusNoException, "fourth"},
	}
	simOut := runSimFTScript(t)
	wireOut := ftScript(t, newWireFTPlane(t))
	if !reflect.DeepEqual(simOut, want) {
		t.Errorf("sim ORB outcomes:\n got %q\nwant %q", simOut, want)
	}
	if !reflect.DeepEqual(wireOut, want) {
		t.Errorf("wire server outcomes:\n got %q\nwant %q", wireOut, want)
	}
}
