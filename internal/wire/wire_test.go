package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/giop"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// loopback wires a client to a server over net.Pipe: every Dial hands
// the client one pipe end and the server the other, so the full
// request/reply path runs without sockets.
func loopback(t *testing.T, scfg ServerConfig, ccfg ClientConfig) (*Server, *Client) {
	t.Helper()
	leakCheck(t)
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var readers sync.WaitGroup
	ccfg.Addr = "pipe"
	ccfg.Dial = func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		readers.Add(1)
		go func() {
			defer readers.Done()
			srv.ServeConn(srvEnd)
		}()
		return cliEnd, nil
	}
	cli, err := NewClient(ccfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Shutdown(2 * time.Second)
		readers.Wait()
		checkLedger(t, srv)
	})
	return srv, cli
}

// echoHandler registers an echo servant capturing the last request.
func echoHandler(srv *Server) *capturedReq {
	cap := &capturedReq{}
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		cap.mu.Lock()
		cap.req = req
		cap.mu.Unlock()
		return req.Body, nil
	}))
	return cap
}

type capturedReq struct {
	mu  sync.Mutex
	req *Request
}

func (c *capturedReq) get() *Request {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.req
}

// TestEchoRoundTrip pins the basic path plus context propagation: the
// servant sees the CORBA priority, the wall-clock deadline and send
// time, and the client's trace context; the reply body round-trips.
func TestEchoRoundTrip(t *testing.T) {
	tr := NewTracer()
	srv, cli := loopback(t,
		ServerConfig{Tracer: tr},
		ClientConfig{Tracer: tr})
	cap := echoHandler(srv)

	before := time.Now()
	got, err := cli.Invoke("app/echo", "echo", []byte("hello wire"), CallOptions{
		Priority: 7, Timeout: time.Second,
	})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(got) != "hello wire" {
		t.Fatalf("reply body = %q", got)
	}

	req := cap.get()
	if req.Priority != 7 {
		t.Errorf("servant saw priority %d, want 7", req.Priority)
	}
	if req.Operation != "echo" || req.Key != "app/echo" {
		t.Errorf("servant saw %s/%s", req.Key, req.Operation)
	}
	if req.Deadline.Before(before) || req.Deadline.After(before.Add(2*time.Second)) {
		t.Errorf("servant deadline %v not ~1s after %v", req.Deadline, before)
	}
	if req.SentAt.Before(before.Add(-time.Second)) || req.SentAt.After(time.Now()) {
		t.Errorf("servant SentAt %v implausible", req.SentAt)
	}
	if !req.TraceCtx.Valid() {
		t.Error("trace context did not propagate")
	}
}

// TestTracerSpans pins the distributed span tree: the server's dispatch
// span is a child of the client's invoke span via the propagated GIOP
// trace context, both in layer "wire".
func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	srv, cli := loopback(t, ServerConfig{Tracer: tr}, ClientConfig{Tracer: tr})
	echoHandler(srv)
	if _, err := cli.Invoke("app/echo", "echo", []byte("x"), CallOptions{}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	cli.Close()
	srv.Shutdown(2 * time.Second)

	var invoke, dispatch *trace.Span
	for _, s := range tr.Collector().Spans() {
		switch s.Name {
		case "wire.invoke":
			invoke = s
		case "wire.dispatch":
			dispatch = s
		}
	}
	if invoke == nil || dispatch == nil {
		t.Fatalf("spans missing: invoke=%v dispatch=%v", invoke, dispatch)
	}
	if invoke.Layer != trace.LayerWire || dispatch.Layer != trace.LayerWire {
		t.Errorf("layers = %s / %s, want wire", invoke.Layer, dispatch.Layer)
	}
	if dispatch.TraceID != invoke.TraceID || dispatch.Parent != invoke.ID {
		t.Errorf("dispatch (trace %d parent %d) not a child of invoke (trace %d span %d)",
			dispatch.TraceID, dispatch.Parent, invoke.TraceID, invoke.ID)
	}

	// Exemplars point at their span and are stamped on the span's clock:
	// the observation instant lies inside the span it names.
	for _, tc := range []struct {
		hist *telemetry.Histogram
		span *trace.Span
	}{
		{cli.Registry().Histogram("wire.client.rtt_ms", telemetry.L("band", "0")), invoke},
		{srv.Registry().Histogram("wire.server.exec_ms", telemetry.L("lane", "0")), dispatch},
	} {
		ex, ok := tc.hist.Exemplar()
		if !ok || ex.SpanID != uint64(tc.span.ID) {
			t.Fatalf("%s: exemplar %+v (found %v) does not name span %d", tc.span.Name, ex, ok, tc.span.ID)
		}
		if ex.At < tc.span.Start || ex.At > tc.span.End {
			t.Errorf("%s: exemplar At = %v, outside its span [%v, %v]", tc.span.Name, ex.At, tc.span.Start, tc.span.End)
		}
	}
}

// TestRequestMuxing pins request-ID multiplexing: concurrent calls on
// one band share one connection and each reply reaches its caller.
func TestRequestMuxing(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{
		Lanes: []LaneConfig{{Priority: 0, Workers: 4, QueueLimit: 64}},
	}, ClientConfig{})
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return req.Body, nil
	}))

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%02d", i)
			got, err := cli.Invoke("app/echo", "echo", []byte(want), CallOptions{Timeout: 2 * time.Second})
			if err != nil {
				errs[i] = err
			} else if string(got) != want {
				errs[i] = fmt.Errorf("reply %q, want %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if dials := cli.Registry().Counter("wire.client.dials", telemetry.L("band", "0")).Value(); dials != 1 {
		t.Errorf("dials = %g, want 1 (all calls multiplexed on one connection)", dials)
	}
}

// TestPriorityBanding pins the private-connection model: each band
// dials its own connection, and requests route to the band whose floor
// they clear.
func TestPriorityBanding(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{Bands: []int16{0, 100}})
	echoHandler(srv)

	for _, p := range []int16{0, 150} {
		if _, err := cli.Invoke("app/echo", "echo", []byte("x"), CallOptions{Priority: p}); err != nil {
			t.Fatalf("priority %d: %v", p, err)
		}
	}
	for _, band := range []string{"0", "100"} {
		if dials := cli.Registry().Counter("wire.client.dials", telemetry.L("band", band)).Value(); dials != 1 {
			t.Errorf("band %s dials = %g, want 1 (private connection per band)", band, dials)
		}
	}
}

// TestOverloadRefusal pins admission control: with the single worker
// blocked and the one-slot queue full, the next request is shed with
// TRANSIENT minor 2, which classifies as ErrOverload client-side.
func TestOverloadRefusal(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{
		Lanes: []LaneConfig{{Priority: 0, Workers: 1, QueueLimit: 1}},
	}, ClientConfig{Breaker: breaker.Config{Threshold: 100}})

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return req.Body, nil
	}))

	var wg sync.WaitGroup
	invoke := func() {
		defer wg.Done()
		cli.Invoke("app/echo", "echo", nil, CallOptions{Timeout: 5 * time.Second})
	}
	// First occupies the worker...
	wg.Add(1)
	go invoke()
	<-entered
	// ...second fills the queue slot (poll the lane channel itself so
	// the third call cannot race the second into the slot).
	wg.Add(1)
	go invoke()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.lanes[0].ch) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the lane queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Third must be refused immediately.
	_, err := cli.Invoke("app/echo", "echo", nil, CallOptions{Timeout: 5 * time.Second})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", err)
	}
	close(release)
	wg.Wait()
}

// waitCounter polls until the counter reaches want (the enqueue path is
// asynchronous to the client's write returning).
func waitCounter(t *testing.T, reg *telemetry.Registry, name string, want float64, labels ...telemetry.Label) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name, labels...).Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s never reached %g", name, want)
}

// TestGracefulDrain pins shutdown semantics: requests in flight when
// Shutdown starts still complete and their replies reach the client;
// requests arriving during the drain are refused.
func TestGracefulDrain(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{
		Lanes: []LaneConfig{{Priority: 0, Workers: 1, QueueLimit: 16}},
	}, ClientConfig{})
	entered := make(chan struct{}, 8)
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		entered <- struct{}{}
		time.Sleep(50 * time.Millisecond)
		return req.Body, nil
	}))

	const n = 3
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cli.Invoke("app/echo", "echo", []byte("drain"), CallOptions{Timeout: 5 * time.Second})
		}(i)
	}
	// Wait until one request is executing and the other two are queued,
	// so none can race the drain flag at admission.
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.lanes[0].ch) != n-1 {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(5 * time.Second); close(done) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight call %d failed during drain: %v", i, err)
		}
	}
	<-done
	if to := srv.Registry().Counter("wire.server.drain_timeouts").Value(); to != 0 {
		t.Errorf("drain timed out (%g), should have finished in-flight work", to)
	}
}

// TestBreakerOpensOnDialFailure pins reconnect gating: consecutive dial
// failures open the band's circuit, further calls fail fast without
// dialing, and after the cooldown a half-open probe dials exactly once.
func TestBreakerOpensOnDialFailure(t *testing.T) {
	cli, err := NewClient(ClientConfig{
		Addr: "refused",
		Dial: func() (net.Conn, error) { return nil, errors.New("connection refused") },
		Breaker: breaker.Config{
			Threshold: 2, Cooldown: 40 * time.Millisecond, CooldownCap: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dials := func() float64 {
		return cli.Registry().Counter("wire.client.dials", telemetry.L("band", "0")).Value()
	}

	for i := 0; i < 2; i++ {
		if _, err := cli.Invoke("app/echo", "echo", nil, CallOptions{}); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if cli.BreakerState(0) != breaker.Open {
		t.Fatalf("state after %d failures = %v, want Open", 2, cli.BreakerState(0))
	}
	if _, err := cli.Invoke("app/echo", "echo", nil, CallOptions{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit: err = %v, want ErrCircuitOpen", err)
	}
	if d := dials(); d != 2 {
		t.Fatalf("dials = %g, want 2 (open circuit must not dial)", d)
	}

	// After the cooldown (plus jitter margin) one half-open probe dials.
	time.Sleep(80 * time.Millisecond)
	if _, err := cli.Invoke("app/echo", "echo", nil, CallOptions{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("probe: err = %v, want ErrUnavailable", err)
	}
	if d := dials(); d != 3 {
		t.Fatalf("dials = %g, want 3 (exactly one probe)", d)
	}
	if cli.BreakerState(0) != breaker.Open {
		t.Fatalf("state after failed probe = %v, want Open", cli.BreakerState(0))
	}
	if n := cli.Registry().Counter("wire.client.breaker_transitions",
		telemetry.L("band", "0"), telemetry.L("to", "open")).Value(); n < 2 {
		t.Errorf("open transitions = %g, want >= 2", n)
	}
}

// TestErrorMapping pins the servant-error taxonomy end to end: unknown
// keys, explicit system exceptions, and generic errors each come back
// as their classified wire error.
func TestErrorMapping(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{Breaker: breaker.Config{Threshold: 100}})
	srv.Register("app/overload", HandlerFunc(func(req *Request) ([]byte, error) {
		return nil, &Exception{ID: giop.ExcTransient, Minor: 2}
	}))
	srv.Register("app/boom", HandlerFunc(func(req *Request) ([]byte, error) {
		return nil, errors.New("servant blew up")
	}))

	if _, err := cli.Invoke("app/missing", "op", nil, CallOptions{}); !errors.Is(err, ErrObjectNotExist) {
		t.Errorf("missing key: err = %v, want ErrObjectNotExist", err)
	}
	if _, err := cli.Invoke("app/overload", "op", nil, CallOptions{}); !errors.Is(err, ErrOverload) {
		t.Errorf("TRANSIENT minor 2: err = %v, want ErrOverload", err)
	}
	var exc *Exception
	if _, err := cli.Invoke("app/boom", "op", nil, CallOptions{}); !errors.As(err, &exc) || exc.ID != giop.ExcUnknown {
		t.Errorf("generic error: err = %v, want UNKNOWN exception", err)
	}
}

// TestClientTimeout pins the wall-clock RELATIVE_RT_TIMEOUT: a servant
// slower than the timeout yields ErrDeadlineExpired at the deadline,
// not at the servant's pace.
func TestClientTimeout(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	release := make(chan struct{})
	defer close(release)
	srv.Register("app/slow", HandlerFunc(func(req *Request) ([]byte, error) {
		<-release
		return nil, nil
	}))

	start := time.Now()
	_, err := cli.Invoke("app/slow", "op", nil, CallOptions{Timeout: 60 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("err = %v, want ErrDeadlineExpired", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~60ms", elapsed)
	}
}

// TestOneway pins fire-and-forget: Invoke returns without waiting and
// the servant still runs.
func TestOneway(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	ran := make(chan struct{}, 1)
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		if !req.Oneway {
			t.Error("servant saw Oneway=false")
		}
		ran <- struct{}{}
		return nil, nil
	}))
	if _, err := cli.Invoke("app/echo", "echo", []byte("fire"), CallOptions{Oneway: true}); err != nil {
		t.Fatalf("oneway: %v", err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("oneway request never dispatched")
	}
}

// TestBufferPoolRoundTrips sanity-checks the pooled read path under
// repeated calls with bodies larger than the pool's seed capacity.
func TestBufferPoolRoundTrips(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	echoHandler(srv)
	big := make([]byte, 48<<10)
	for i := range big {
		big[i] = byte(i * 31)
	}
	for i := 0; i < 16; i++ {
		got, err := cli.Invoke("app/echo", "echo", big, CallOptions{Timeout: 2 * time.Second})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(got) != len(big) || got[777] != big[777] || got[47<<10] != big[47<<10] {
			t.Fatalf("call %d: body corrupted through pooled buffers", i)
		}
	}
}
