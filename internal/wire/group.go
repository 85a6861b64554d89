package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/events"
	"repro/internal/giop"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// GroupConfig configures a GroupClient over an ordered endpoint set —
// the wire-plane counterpart of an ft.Group reference: the first
// endpoint is the primary profile, the rest are alternates in failover
// order, and every logical request carries the FT request context
// (0x13) so replicas suppress duplicate executions.
type GroupConfig struct {
	// Endpoints are the TCP addresses, primary first (required).
	Endpoints []string
	// Client is the template of every per-endpoint Client: Bands,
	// RequestTimeout, DialTimeout, Breaker, Registry, Tracer and Bus apply
	// to each member as ClientConfig documents them, and Registry, Tracer
	// and Bus also receive the group's own wire.group.* telemetry,
	// group.invoke spans and failover/health records. Name labels the
	// group ("wire.group" default; member i is Name[i]); Seed fixes the
	// backoff-jitter stream and, offset by the member index, each
	// member's breaker jitter (0 = 1). Addr and Dial are set per endpoint.
	Client ClientConfig

	// BackoffBase shapes the capped jittered backoff between attempts:
	// attempt k waits in [d/2, d) for d = min(BackoffBase·2^(k-1),
	// groupBackoffCap). Default 5ms. A test seam: no program sets it;
	// tests that exhaust the retry budget shorten it.
	BackoffBase time.Duration

	// ProbeInterval is the endpoint heartbeat period (default 250ms;
	// negative disables probing). Each probe dials the endpoint, sends
	// a GIOP LocateRequest and requires any well-formed reply within
	// ProbeTimeout (default 250ms) — so a half-open blackhole (TCP
	// accepts, nothing answers) is detected, not just a dead port. The
	// chaos soak probes every 50ms.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// Dial overrides per-endpoint connection establishment, for members
	// and probes alike — the loopback hook of the socket-free tests.
	Dial func(addr string) (net.Conn, error)
}

const (
	// groupBackoffCap bounds one backoff wait; the request's deadline
	// bounds their sum.
	groupBackoffCap = 200 * time.Millisecond
	// The shared retry bucket: 64 tokens absorb a failure burst, and 0.1
	// earned per first attempt keeps steady-state retries at or below a
	// tenth of offered load (see RetryBudget).
	retryBudgetMax   = 64
	retryBudgetRatio = 0.1
)

// groupEndpoint is one member's runtime state.
type groupEndpoint struct {
	addr string
	cli  *Client
	// down is the health prober's verdict; invocations prefer up
	// endpoints but fall back to down ones when nothing else is left.
	down atomic.Bool
}

// GroupClient is the fault-tolerant wire client: it holds one banded
// Client per endpoint (each with its own circuit breakers), probes
// endpoint liveness in the background, and fails invocations over from
// the primary to alternates — under a shared retry budget (no retry
// storms), capped jittered backoff, and the at-most-once rule: after an
// ambiguous failure (the connection died once request bytes may have
// reached a server) a non-idempotent call is only ever retried against
// the same endpoint, where the server's FT dedup cache makes the retry
// safe; provably-unexecuted failures (dial errors, open circuits,
// admission refusals) may fail over freely.
type GroupClient struct {
	cfg       GroupConfig
	reg       *telemetry.Registry
	name      string
	eps       []*groupEndpoint
	primary   atomic.Int32
	budget    *RetryBudget
	ftClient  uint64 // this client's id in FT request contexts
	retention atomic.Uint32
	jmu       sync.Mutex
	jrand     *rand.Rand
	closed    atomic.Bool
	probeStop chan struct{}
	probeWG   sync.WaitGroup
	requests  counterVec // wire.group.requests{outcome}
}

// ftGroup is the object-group id group clients stamp in FT request
// contexts: a GroupClient addresses one replica group.
const ftGroup = 1

// ftClientSeq makes FT client ids unique within a process; the
// construction instant makes them unique across processes.
var ftClientSeq atomic.Uint64

// NewGroupClient builds a group client and starts its health probers.
func NewGroupClient(cfg GroupConfig) (*GroupClient, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("wire: group client needs at least one endpoint")
	}
	tmpl := &cfg.Client
	if tmpl.Name == "" {
		tmpl.Name = "wire.group"
	}
	if tmpl.Registry == nil {
		tmpl.Registry = telemetry.NewRegistry()
	}
	if tmpl.Seed == 0 {
		tmpl.Seed = 1
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 5 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 250 * time.Millisecond
	}

	g := &GroupClient{
		cfg:       cfg,
		reg:       tmpl.Registry,
		name:      tmpl.Name,
		budget:    NewRetryBudget(retryBudgetMax, retryBudgetRatio),
		ftClient:  uint64(time.Now().UnixNano())<<16 | (ftClientSeq.Add(1) & 0xffff),
		jrand:     rand.New(rand.NewSource(tmpl.Seed)),
		probeStop: make(chan struct{}),
	}
	g.requests = counterVec{reg: g.reg, name: "wire.group.requests", vary: "outcome"}
	for i, addr := range cfg.Endpoints {
		addr := addr
		ccfg := *tmpl
		ccfg.Addr = addr
		ccfg.Name = fmt.Sprintf("%s[%d]", tmpl.Name, i)
		ccfg.Seed = tmpl.Seed + int64(i)
		ccfg.Dial = nil
		if cfg.Dial != nil {
			ccfg.Dial = func() (net.Conn, error) { return cfg.Dial(addr) }
		}
		cli, err := NewClient(ccfg)
		if err != nil {
			return nil, err
		}
		g.eps = append(g.eps, &groupEndpoint{addr: addr, cli: cli})
	}
	if cfg.ProbeInterval > 0 {
		for i := range g.eps {
			g.probeWG.Add(1)
			go g.probeLoop(i)
		}
	}
	return g, nil
}

// Registry returns the group's telemetry registry.
func (g *GroupClient) Registry() *telemetry.Registry { return g.reg }

// Budget returns the shared retry budget (for reporting).
func (g *GroupClient) Budget() *RetryBudget { return g.budget }

// Primary returns the index of the currently preferred endpoint.
func (g *GroupClient) Primary() int { return int(g.primary.Load()) }

// Healthy reports the prober's current verdict for endpoint i.
func (g *GroupClient) Healthy(i int) bool { return !g.eps[i].down.Load() }

// Close tears down the probers and every per-endpoint client;
// outstanding calls fail with ErrClientClosed.
func (g *GroupClient) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	close(g.probeStop)
	g.probeWG.Wait()
	for _, ep := range g.eps {
		ep.cli.Close()
	}
}

// groupCall is one logical invocation's ledger: Invoke's attempt loop
// fills it and settle books it, once. Its outcome names the mechanism that
// ended the call: ok (the first attempt answered), recovered (a later one
// did), not_retryable (retryable said no), retry_denied (the RetryBudget),
// exhausted (one attempt per member plus one), deadline (it passed before
// an attempt, or the next backoff would cross it) or closed (Close had
// run).
type groupCall struct {
	op        string
	span      trace.SpanContext
	start     time.Time
	first, ep int // the primary when the call began; the last endpoint tried
	attempts  int
	err       error
	outcome   string
}

// Invoke performs one logical invocation with transparent failover.
// The request is stamped with a fresh FT retention id, so every
// transport-level attempt is deduplicated server-side.
func (g *GroupClient) Invoke(key, op string, body []byte, opts CallOptions) ([]byte, error) {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = g.eps[0].cli.cfg.RequestTimeout
	}
	opts.ft = &FTRequest{Group: ftGroup, Client: g.ftClient, Retention: g.retention.Add(1)}
	call := groupCall{op: op, start: time.Now(), first: int(g.primary.Load())}
	deadline := call.start.Add(timeout)
	tr := g.cfg.Client.Tracer
	if tr != nil {
		call.span = tr.StartRoot("group.invoke",
			trace.String("op", op),
			trace.Int("priority", int64(opts.Priority)),
			trace.Int("retention", int64(opts.ft.Retention)))
	}
	call.ep = g.pick(call.first, opts.Priority)
	if g.closed.Load() {
		call.err, call.outcome = ErrClientClosed, "closed"
	}

	var res []byte
	ambiguous := false
	for call.outcome == "" {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if call.err == nil {
				call.err = fmt.Errorf("%w: %v elapsed across failover attempts for %s", ErrDeadlineExpired, timeout, op)
			}
			call.outcome = "deadline"
			break
		}
		opts2 := opts
		opts2.Timeout = remaining
		res, call.err = g.eps[call.ep].cli.Invoke(key, op, body, opts2)
		call.attempts++
		if call.attempts == 1 {
			g.budget.Earn()
		}
		err := call.err
		ambiguous = ambiguous || isAmbiguous(err)
		switch {
		case err == nil && call.attempts == 1:
			call.outcome = "ok"
		case err == nil:
			call.outcome = "recovered"
		case errors.Is(err, ErrClientClosed):
			call.outcome = "closed"
		case !retryable(err):
			call.outcome = "not_retryable"
		case call.attempts > len(g.eps):
			call.outcome = "exhausted"
		case !g.budget.TryAcquire():
			call.outcome = "retry_denied"
		}
		if call.outcome != "" {
			break
		}
		next := g.next(call.ep, opts.Priority, opts.Idempotent, ambiguous)
		d := g.backoff(call.attempts)
		if d >= time.Until(deadline) {
			call.outcome = "deadline"
			break
		}
		time.Sleep(d)
		g.reg.Counter("wire.group.retries",
			telemetry.L("error", errClass(err)),
			telemetry.L("from", g.eps[call.ep].addr)).Inc()
		if tr != nil {
			tr.Event(call.span, "failover_attempt",
				trace.String("error", errClass(err)),
				trace.String("from", g.eps[call.ep].addr),
				trace.String("to", g.eps[next].addr))
		}
		if g.cfg.Client.Bus != nil {
			g.cfg.Client.Bus.PublishAt(sim.Wall.Now(), events.KindFailover, g.name,
				events.F("op", op),
				events.F("from", g.eps[call.ep].addr),
				events.F("to", g.eps[next].addr),
				events.F("error", errClass(err)),
				events.F("attempt", fmt.Sprintf("%d", call.attempts)),
			)
		}
		call.ep = next
	}
	return res, g.settle(call)
}

// settle books a logical invocation's one outcome: it counts
// wire.group.requests{outcome} and ends the group.invoke span. A recovery
// also observes wire.group.failover_ms (the failover time the chaos soak
// reports), publishes a KindFailover record, and promotes the endpoint
// that answered so later calls go straight to it.
func (g *GroupClient) settle(c groupCall) error {
	g.requests.get(c.outcome).Inc()
	if c.outcome == "recovered" {
		ms := float64(time.Since(c.start)) / float64(time.Millisecond)
		g.reg.Histogram("wire.group.failover_ms").ObserveEx(ms, telemetry.Exemplar{
			TraceID: uint64(c.span.Trace), SpanID: uint64(c.span.Span), Value: ms, At: sim.Wall.Now(),
		})
		g.primary.CompareAndSwap(int32(c.first), int32(c.ep))
		if g.cfg.Client.Bus != nil {
			g.cfg.Client.Bus.PublishAt(sim.Wall.Now(), events.KindFailover, g.name,
				events.F("op", c.op),
				events.F("to", g.eps[c.ep].addr),
				events.F("attempts", fmt.Sprintf("%d", c.attempts)),
				events.F("outcome", "recovered"),
			)
		}
	}
	if tr := g.cfg.Client.Tracer; tr != nil {
		attrs := []trace.Attr{trace.String("outcome", c.outcome),
			trace.String("endpoint", g.eps[c.ep].addr),
			trace.Int("attempts", int64(c.attempts))}
		if c.err != nil {
			attrs = append(attrs, trace.String("error", errClass(c.err)))
		}
		tr.Finish(c.span, attrs...)
	}
	return c.err
}

// isAmbiguous reports whether err leaves the execution state of the
// request unknown: the connection died after the request may have been
// written, so a server might be executing (or have executed) it.
// Provably-unexecuted failures — dial errors, locally-open circuits,
// server admission refusals — are not ambiguous.
func isAmbiguous(err error) bool {
	return errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrDial)
}

// retryable decides whether another attempt may be made at all: an open
// circuit, an overload or TRANSIENT refusal and a dial failure prove the
// request unexecuted, and a dead connection (ambiguous) may retry where
// next allows — once an invocation has seen an ambiguous failure, a
// non-idempotent call stays on the endpoint whose FT dedup cache protects
// it. Deadline expiry, unknown objects, protocol errors and application
// exceptions never retry.
func retryable(err error) bool {
	return errors.Is(err, ErrCircuitOpen) || errors.Is(err, ErrOverload) ||
		errors.Is(err, ErrTransient) || errors.Is(err, ErrUnavailable)
}

// pick returns the endpoint an invocation should start on: the first
// endpoint from the preferred index (wrapping) that is probe-healthy
// with a non-open circuit, falling back to the preferred index when
// every endpoint looks sick (someone has to take the probe traffic).
func (g *GroupClient) pick(from int, prio int16) int {
	n := len(g.eps)
	for off := 0; off < n; off++ {
		i := (from + off) % n
		if !g.eps[i].down.Load() && g.eps[i].cli.BreakerState(prio) != breaker.Open {
			return i
		}
	}
	return from
}

// next returns the endpoint for the following attempt. Non-idempotent
// invocations that have seen an ambiguous failure stay on the same
// endpoint — its dedup cache is the only place a retry is provably
// at-most-once; everything else advances to the next plausible
// endpoint in profile order.
func (g *GroupClient) next(ep int, prio int16, idempotent, ambiguous bool) int {
	if ambiguous && !idempotent {
		return ep
	}
	n := len(g.eps)
	for off := 1; off < n; off++ {
		i := (ep + off) % n
		if !g.eps[i].down.Load() && g.eps[i].cli.BreakerState(prio) != breaker.Open {
			return i
		}
	}
	return (ep + 1) % n
}

// backoff returns the capped jittered wait before attempt k+1: uniform
// in [d/2, d) for d = min(BackoffBase·2^(k-1), groupBackoffCap).
func (g *GroupClient) backoff(attempt int) time.Duration {
	d := g.cfg.BackoffBase << uint(attempt-1)
	if d <= 0 || d > groupBackoffCap {
		d = groupBackoffCap
	}
	g.jmu.Lock()
	j := g.jrand.Int63n(int64(d/2) + 1)
	g.jmu.Unlock()
	return d/2 + time.Duration(j)
}

// probeLoop runs endpoint i's heartbeat: stagger, then probe every
// ProbeInterval, publishing verdict changes.
func (g *GroupClient) probeLoop(i int) {
	defer g.probeWG.Done()
	ep := g.eps[i]
	epL := telemetry.L("endpoint", ep.addr)
	// Stagger the probers so a group of clients does not synchronise
	// its probes against a recovering endpoint.
	stagger := time.Duration(i) * g.cfg.ProbeInterval / time.Duration(len(g.eps))
	timer := time.NewTimer(stagger)
	defer timer.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-timer.C:
		}
		alive := g.probe(ep.addr)
		g.reg.Counter("wire.group.probes", epL, telemetry.L("alive", fmt.Sprintf("%v", alive))).Inc()
		if wasDown := ep.down.Load(); wasDown == alive {
			ep.down.Store(!alive)
			verdict := "down"
			if alive {
				verdict = "up"
			}
			g.reg.Counter("wire.group.health_transitions", epL, telemetry.L("to", verdict)).Inc()
			if tr := g.cfg.Client.Tracer; tr != nil {
				ctx := tr.StartRoot("health."+verdict, trace.String("endpoint", ep.addr))
				tr.Finish(ctx)
			}
			if g.cfg.Client.Bus != nil {
				g.cfg.Client.Bus.PublishAt(sim.Wall.Now(), events.KindHealth, g.name,
					events.F("endpoint", ep.addr),
					events.F("to", verdict),
				)
			}
		}
		timer.Reset(g.cfg.ProbeInterval)
	}
}

// probe performs one TCP heartbeat against addr: dial, send a GIOP
// LocateRequest, require a well-formed GIOP reply within ProbeTimeout.
// Any parseable answer — LocateReply with either status, even
// MessageError — proves a live GIOP speaker; silence (a half-open
// blackhole) or connection failure does not.
func (g *GroupClient) probe(addr string) bool {
	var nc net.Conn
	var err error
	if g.cfg.Dial != nil {
		nc, err = g.cfg.Dial(addr)
	} else {
		nc, err = net.DialTimeout("tcp", addr, g.cfg.ProbeTimeout)
	}
	if err != nil {
		return false
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(g.cfg.ProbeTimeout))
	req := &giop.LocateRequest{RequestID: 1, ObjectKey: []byte("ft/heartbeat")}
	if _, err := nc.Write(req.Marshal(requestOrder)); err != nil {
		return false
	}
	br := bufio.NewReaderSize(nc, 256)
	frame, err := giop.ReadFrame(br, giop.DefaultMaxMessage, make([]byte, 0, 256))
	if err != nil {
		return false
	}
	_, err = giop.Decode(frame)
	return err == nil
}
