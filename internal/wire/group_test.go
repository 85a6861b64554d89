package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// fabric is the group tests' in-process network: named endpoints backed
// by pipe-served Servers, with per-endpoint kill switches (dial refused,
// like a dead port) and access to the live client-side conns (so a test
// can sever one mid-call, the ambiguous-failure case).
type fabric struct {
	t       *testing.T
	mu      sync.Mutex
	srvs    map[string]*Server
	dead    map[string]bool
	conns   map[string][]net.Conn // client ends handed out, per endpoint
	readers sync.WaitGroup
}

func newFabric(t *testing.T) *fabric {
	t.Helper()
	leakCheck(t)
	f := &fabric{
		t:     t,
		srvs:  make(map[string]*Server),
		dead:  make(map[string]bool),
		conns: make(map[string][]net.Conn),
	}
	t.Cleanup(func() {
		for _, srv := range f.srvs {
			srv.Shutdown(2 * time.Second)
		}
		f.readers.Wait()
	})
	return f
}

func (f *fabric) addServer(addr string) *Server {
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		f.t.Fatalf("NewServer(%s): %v", addr, err)
	}
	f.mu.Lock()
	f.srvs[addr] = srv
	f.mu.Unlock()
	return srv
}

func (f *fabric) setDead(addr string, dead bool) {
	f.mu.Lock()
	f.dead[addr] = dead
	f.mu.Unlock()
}

// severAll closes every client-side conn handed out for addr: the
// transport dies under in-flight calls, which surface ErrUnavailable.
func (f *fabric) severAll(addr string) {
	f.mu.Lock()
	conns := f.conns[addr]
	f.conns[addr] = nil
	f.mu.Unlock()
	for _, nc := range conns {
		nc.Close()
	}
}

func (f *fabric) dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[addr] {
		return nil, fmt.Errorf("fabric: %s: connection refused", addr)
	}
	srv, ok := f.srvs[addr]
	if !ok {
		return nil, fmt.Errorf("fabric: %s: no such endpoint", addr)
	}
	cliEnd, srvEnd := net.Pipe()
	f.conns[addr] = append(f.conns[addr], cliEnd)
	f.readers.Add(1)
	go func() {
		defer f.readers.Done()
		srv.ServeConn(srvEnd)
	}()
	return cliEnd, nil
}

// testGroup counts the invocations a test makes, so the fabric can check
// that each ended in exactly one wire.group.requests outcome.
type testGroup struct {
	*GroupClient
	calls atomic.Int64
}

func (g *testGroup) Invoke(key, op string, body []byte, opts CallOptions) ([]byte, error) {
	g.calls.Add(1)
	return g.GroupClient.Invoke(key, op, body, opts)
}

// groupOutcomes reads the wire.group.requests series by outcome.
func groupOutcomes(g *GroupClient) map[string]float64 {
	out := map[string]float64{}
	for _, key := range g.Registry().CounterKeys() {
		if name, labels := telemetry.ParseKey(key); name == "wire.group.requests" {
			out[labels[0].V] = g.Registry().CounterByKey(key).Value()
		}
	}
	return out
}

func (f *fabric) group(t *testing.T, cfg GroupConfig) *testGroup {
	t.Helper()
	cfg.Dial = f.dial
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // deterministic unless a test opts in
	}
	g, err := NewGroupClient(cfg)
	if err != nil {
		t.Fatalf("NewGroupClient: %v", err)
	}
	tg := &testGroup{GroupClient: g}
	t.Cleanup(func() {
		g.Close()
		var settled float64
		for _, n := range groupOutcomes(g) {
			settled += n
		}
		if calls := tg.calls.Load(); settled != float64(calls) {
			t.Errorf("%d invocations, %g settled %v", calls, settled, groupOutcomes(g))
		}
	})
	return tg
}

func tagHandler(execs *atomic.Int64, tag string) HandlerFunc {
	return func(req *Request) ([]byte, error) {
		execs.Add(1)
		return []byte(tag), nil
	}
}

// TestGroupFailoverOnDialError pins the provably-safe failover path: a
// dead primary (dial refused) never saw the request, so even a
// non-idempotent call moves to the alternate — and the group promotes
// the alternate to primary so later calls skip the corpse.
func TestGroupFailoverOnDialError(t *testing.T) {
	f := newFabric(t)
	var execsB atomic.Int64
	f.addServer("a")
	f.addServer("b").Register("app/x", tagHandler(&execsB, "from-b"))
	f.setDead("a", true)

	g := f.group(t, GroupConfig{Endpoints: []string{"a", "b"}})
	got, err := g.Invoke("app/x", "x", nil, CallOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(got) != "from-b" {
		t.Fatalf("reply = %q, want from-b", got)
	}
	if g.Primary() != 1 {
		t.Fatalf("primary = %d after failover, want 1 (promoted)", g.Primary())
	}
	if spent := g.Budget().Spent(); spent != 1 {
		t.Fatalf("budget spent = %d, want 1 (one failover retry)", spent)
	}
	// With the alternate promoted, the next call succeeds first-attempt.
	if _, err := g.Invoke("app/x", "x", nil, CallOptions{}); err != nil {
		t.Fatalf("post-promotion Invoke: %v", err)
	}
	if g.Budget().Spent() != 1 {
		t.Fatalf("budget spent = %d after promoted call, want still 1", g.Budget().Spent())
	}
}

// TestGroupAmbiguousNonIdempotentStaysOnEndpoint pins the at-most-once
// core: after the connection dies mid-call (ambiguous — the servant may
// have executed), a non-idempotent call retries only against the SAME
// endpoint, where the server's FT dedup cache returns the cached reply
// instead of re-executing. The alternate must never be touched.
func TestGroupAmbiguousNonIdempotentStaysOnEndpoint(t *testing.T) {
	f := newFabric(t)
	var execsA, execsB atomic.Int64
	executed := make(chan struct{}, 8)
	release := make(chan struct{})
	srvA := f.addServer("a")
	srvA.Register("app/x", HandlerFunc(func(req *Request) ([]byte, error) {
		execsA.Add(1)
		executed <- struct{}{}
		// Hold the reply until the test has severed the transport, so the
		// client provably sees the connection die, not the answer.
		<-release
		return []byte("from-a"), nil
	}))
	f.addServer("b").Register("app/x", tagHandler(&execsB, "from-b"))

	g := f.group(t, GroupConfig{Endpoints: []string{"a", "b"}})
	done := make(chan error, 1)
	var reply []byte
	go func() {
		var err error
		reply, err = g.Invoke("app/x", "x", nil, CallOptions{Timeout: 5 * time.Second})
		done <- err
	}()
	// The servant has executed; kill the transport before the reply can
	// be read, making the failure ambiguous from the client's side.
	<-executed
	f.severAll("a")
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(reply) != "from-a" {
		t.Fatalf("reply = %q, want cached from-a", reply)
	}
	if a, b := execsA.Load(), execsB.Load(); a != 1 || b != 0 {
		t.Fatalf("execs a=%d b=%d, want a=1 (dedup) b=0 (no cross-endpoint retry)", a, b)
	}
}

// TestGroupAmbiguousIdempotentFailsOver is the counterpart: the same
// mid-call transport death, but the operation is declared idempotent,
// so the retry is allowed to move to the alternate.
func TestGroupAmbiguousIdempotentFailsOver(t *testing.T) {
	f := newFabric(t)
	var execsA, execsB atomic.Int64
	executed := make(chan struct{}, 8)
	release := make(chan struct{})
	srvA := f.addServer("a")
	srvA.Register("app/x", HandlerFunc(func(req *Request) ([]byte, error) {
		execsA.Add(1)
		executed <- struct{}{}
		// Hold the reply until the transport is severed, so the failure
		// is genuinely ambiguous from the client's side.
		<-release
		return []byte("from-a"), nil
	}))
	f.addServer("b").Register("app/x", tagHandler(&execsB, "from-b"))

	g := f.group(t, GroupConfig{Endpoints: []string{"a", "b"}})
	done := make(chan error, 1)
	var reply []byte
	go func() {
		var err error
		reply, err = g.Invoke("app/x", "x", nil, CallOptions{Timeout: 5 * time.Second, Idempotent: true})
		done <- err
	}()
	<-executed
	f.severAll("a")
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(reply) != "from-b" {
		t.Fatalf("reply = %q, want from-b (idempotent cross-endpoint retry)", reply)
	}
	if b := execsB.Load(); b != 1 {
		t.Fatalf("execs b=%d, want 1", b)
	}
}

// TestGroupRetryBudgetExhausts pins the no-retry-storm property: with
// every endpoint dead and a tiny budget, retries stop when the bucket
// empties — denied retries are counted, the original failure surfaces.
func TestGroupRetryBudgetExhausts(t *testing.T) {
	f := newFabric(t)
	f.addServer("a")
	f.addServer("b")
	f.setDead("a", true)
	f.setDead("b", true)

	g := f.group(t, GroupConfig{
		Endpoints:   []string{"a", "b"},
		BackoffBase: time.Millisecond,
	})
	// Two members allow two retries per request; one token stops the
	// second.
	g.budget = NewRetryBudget(1, 0.01)
	_, err := g.Invoke("app/x", "x", nil, CallOptions{Timeout: 2 * time.Second})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Invoke = %v, want ErrUnavailable (dial failures)", err)
	}
	if spent := g.Budget().Spent(); spent != 1 {
		t.Fatalf("budget spent = %d, want 1 (bucket drained)", spent)
	}
	if denied := g.Budget().Denied(); denied != 1 {
		t.Fatalf("budget denied = %d, want 1 (the stopped retry)", denied)
	}
}

// TestGroupProbeMarksDownAndRecovers exercises the heartbeat prober: a
// killed endpoint is marked down within a few probe periods, and comes
// back after restoration — the signal pick() uses to route fresh
// invocations away from corpses without burning a dial timeout.
func TestGroupProbeMarksDownAndRecovers(t *testing.T) {
	f := newFabric(t)
	f.addServer("a")
	f.addServer("b")

	g := f.group(t, GroupConfig{
		Endpoints:     []string{"a", "b"},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
	})
	waitVerdict := func(i int, want bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if g.Healthy(i) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("endpoint %d: Healthy never became %v", i, want)
	}
	waitVerdict(0, true)
	f.setDead("a", true)
	waitVerdict(0, false)
	f.setDead("a", false)
	waitVerdict(0, true)
}

// TestGroupCloseRefusesAndStopsProbes pins teardown: Close stops the
// probe goroutines (leakCheck enforces it) and later invocations are
// refused with ErrClientClosed.
func TestGroupCloseRefusesAndStopsProbes(t *testing.T) {
	f := newFabric(t)
	f.addServer("a")
	g := f.group(t, GroupConfig{
		Endpoints:     []string{"a"},
		ProbeInterval: 5 * time.Millisecond,
	})
	time.Sleep(20 * time.Millisecond) // let a few probes run
	g.Close()
	if _, err := g.Invoke("app/x", "x", nil, CallOptions{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Invoke after Close = %v, want ErrClientClosed", err)
	}
}

// TestGroupOutcomeEachFate drives one invocation to each of the seven group
// outcomes in turn. Each moves exactly its own wire.group.requests series
// and ends exactly one group.invoke span carrying it; the one recovery
// publishes the one recovered KindFailover record and is the only step that
// moves the primary, to the endpoint that answered.
func TestGroupOutcomeEachFate(t *testing.T) {
	f := newFabric(t)
	var execs atomic.Int64
	f.addServer("a").Register("app/x", tagHandler(&execs, "from-a"))
	f.addServer("b").Register("app/x", tagHandler(&execs, "from-b"))
	bus := events.NewBus(sim.Wall)
	failovers := events.NewTimeline(bus, events.KindFailover)
	tr := NewTracer()
	g := f.group(t, GroupConfig{
		Endpoints:   []string{"a", "b"},
		BackoffBase: time.Millisecond,
		// Members never open a circuit here, so every step starts at the
		// primary.
		Client: ClientConfig{Bus: bus, Tracer: tr, Breaker: breaker.Config{Threshold: 1 << 20}},
	})
	budget := g.budget
	// killA refuses a's dials and severs the connection the ok steps made.
	killA := func() {
		f.setDead("a", true)
		f.severAll("a")
		band := g.eps[0].cli.bands[0]
		eventually(t, "a's connection to drop", func() bool {
			band.mu.Lock()
			defer band.mu.Unlock()
			return band.conn == nil
		})
	}
	steps := []struct {
		outcome string
		primary int // after the step
		setup   func()
		key     string
		timeout time.Duration
	}{
		{outcome: "ok", key: "app/x"},
		{outcome: "not_retryable", key: "app/missing"},
		{outcome: "retry_denied", setup: func() { killA(); g.budget = NewRetryBudget(0, 0) }},
		{outcome: "exhausted", setup: func() { g.budget = budget; f.setDead("b", true) }},
		{outcome: "recovered", primary: 1, setup: func() { f.setDead("b", false) }},
		{outcome: "deadline", primary: 1, timeout: time.Nanosecond},
		{outcome: "closed", primary: 1, setup: g.Close},
	}
	for _, st := range steps {
		if st.setup != nil {
			st.setup()
		}
		if st.key == "" {
			st.key = "app/x"
		}
		if st.timeout == 0 {
			st.timeout = 2 * time.Second
		}
		before := groupOutcomes(g.GroupClient)
		_, err := g.Invoke(st.key, "x", nil, CallOptions{Timeout: st.timeout})
		if (err == nil) != (st.outcome == "ok" || st.outcome == "recovered") {
			t.Errorf("%s: err = %v", st.outcome, err)
		}
		before[st.outcome]++
		if after := groupOutcomes(g.GroupClient); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Errorf("%s: wire.group.requests %v, want %v", st.outcome, after, before)
		}
		if g.Primary() != st.primary {
			t.Errorf("%s: primary = %d, want %d", st.outcome, g.Primary(), st.primary)
		}
	}

	spans := map[string]int{}
	for _, s := range tr.Collector().Spans() {
		if s.Name == "group.invoke" {
			for _, a := range s.Attrs {
				if a.Key == "outcome" {
					spans[a.Val]++
				}
			}
		}
	}
	if len(spans) != len(steps) {
		t.Errorf("group.invoke spans by outcome: %v, want one per step", spans)
	}
	for _, st := range steps {
		if spans[st.outcome] != 1 {
			t.Errorf("%d group.invoke spans with outcome=%s, want 1", spans[st.outcome], st.outcome)
		}
	}
	var recovered []string
	for _, r := range failovers.Records() {
		if fmt.Sprint(r.Fields) == "[{op x} {to b} {attempts 2} {outcome recovered}]" {
			recovered = append(recovered, fmt.Sprint(r.Fields))
		} else if len(r.Fields) != 5 {
			t.Errorf("unexpected failover record %v", r.Fields)
		}
	}
	if len(recovered) != 1 {
		t.Errorf("recovered failover records %v, want exactly one", recovered)
	}
}
