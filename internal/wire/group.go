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

// Invoke performs one logical invocation with transparent failover.
// The request is stamped with a fresh FT retention id (unless opts.FT
// already carries one — a caller-level retry of the same logical
// request), so every transport-level attempt is deduplicated
// server-side.
func (g *GroupClient) Invoke(key, op string, body []byte, opts CallOptions) ([]byte, error) {
	if g.closed.Load() {
		return nil, ErrClientClosed
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = g.eps[0].cli.cfg.RequestTimeout
	}
	start := time.Now()
	deadline := start.Add(timeout)
	if opts.FT == nil {
		opts.FT = &FTRequest{Group: ftGroup, Client: g.ftClient, Retention: g.retention.Add(1)}
	}

	var span trace.SpanContext
	tr := g.cfg.Client.Tracer
	if tr != nil {
		span = tr.StartRoot("group.invoke",
			trace.String("op", op),
			trace.Int("priority", int64(opts.Priority)),
			trace.Int("retention", int64(opts.FT.Retention)))
	}

	first := int(g.primary.Load())
	ep := g.pick(first, opts.Priority)
	var lastErr error
	ambiguous := false
	for attempt := 1; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("%w: %v elapsed across failover attempts for %s", ErrDeadlineExpired, timeout, op)
			}
			break
		}
		opts2 := opts
		opts2.Timeout = remaining
		res, err := g.eps[ep].cli.Invoke(key, op, body, opts2)
		if attempt == 1 {
			g.budget.Earn()
		}
		if err == nil {
			if attempt > 1 {
				g.recordFailover(op, first, ep, attempt, start, span)
			}
			if tr != nil {
				tr.Finish(span, trace.String("outcome", "ok"),
					trace.String("endpoint", g.eps[ep].addr),
					trace.Int("attempts", int64(attempt)))
			}
			return res, nil
		}
		lastErr = err
		if isAmbiguous(err) {
			ambiguous = true
		}
		// At most one attempt per member, plus one.
		if !retryable(err, opts.Idempotent, ambiguous) || attempt > len(g.eps) {
			break
		}
		if !g.budget.TryAcquire() {
			g.reg.Counter("wire.group.retry_denied").Inc()
			if tr != nil {
				tr.Event(span, "retry_denied", trace.String("error", errClass(err)))
			}
			break
		}
		next := g.next(ep, opts.Priority, opts.Idempotent, ambiguous)
		if d := g.backoff(attempt); d > 0 {
			if d >= time.Until(deadline) {
				break
			}
			time.Sleep(d)
		}
		g.reg.Counter("wire.group.retries",
			telemetry.L("error", errClass(err)),
			telemetry.L("from", g.eps[ep].addr)).Inc()
		if tr != nil {
			tr.Event(span, "failover_attempt",
				trace.String("error", errClass(err)),
				trace.String("from", g.eps[ep].addr),
				trace.String("to", g.eps[next].addr))
		}
		if g.cfg.Client.Bus != nil {
			g.cfg.Client.Bus.PublishAt(sim.Wall.Now(), events.KindFailover, g.name,
				events.F("op", op),
				events.F("from", g.eps[ep].addr),
				events.F("to", g.eps[next].addr),
				events.F("error", errClass(err)),
				events.F("attempt", fmt.Sprintf("%d", attempt)),
			)
		}
		ep = next
	}
	if tr != nil {
		tr.Finish(span, trace.String("outcome", errClass(lastErr)),
			trace.String("endpoint", g.eps[ep].addr))
	}
	return nil, lastErr
}

// recordFailover books a successful failover: telemetry (the
// failover-time histogram the chaos bench reports), a bus record, and
// primary promotion so subsequent requests go straight to the endpoint
// that answered — the wire counterpart of ft.Group.Promote.
func (g *GroupClient) recordFailover(op string, from, to, attempts int, start time.Time, span trace.SpanContext) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	g.reg.Counter("wire.group.failovers", telemetry.L("to", g.eps[to].addr)).Inc()
	g.reg.Histogram("wire.group.failover_ms").ObserveEx(ms, telemetry.Exemplar{
		TraceID: uint64(span.Trace), SpanID: uint64(span.Span), Value: ms, At: sim.Wall.Now(),
	})
	if to != from {
		g.primary.CompareAndSwap(int32(from), int32(to))
	}
	if g.cfg.Client.Bus != nil {
		g.cfg.Client.Bus.PublishAt(sim.Wall.Now(), events.KindFailover, g.name,
			events.F("op", op),
			events.F("to", g.eps[to].addr),
			events.F("attempts", fmt.Sprintf("%d", attempts)),
			events.F("outcome", "recovered"),
		)
	}
}

// isAmbiguous reports whether err leaves the execution state of the
// request unknown: the connection died after the request may have been
// written, so a server might be executing (or have executed) it.
// Provably-unexecuted failures — dial errors, locally-open circuits,
// server admission refusals — are not ambiguous.
func isAmbiguous(err error) bool {
	return errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrDial)
}

// retryable decides whether another attempt may be made at all. The
// at-most-once rule: once an invocation has seen an ambiguous failure,
// a non-idempotent call may only be retried where the server-side FT
// dedup cache protects it (enforced by next keeping the endpoint);
// deadline expiry, unknown objects, protocol errors and application
// exceptions never retry.
func retryable(err error, idempotent, ambiguous bool) bool {
	switch {
	case errors.Is(err, ErrClientClosed):
		return false
	case errors.Is(err, ErrDeadlineExpired):
		return false
	case errors.Is(err, ErrCircuitOpen), errors.Is(err, ErrOverload),
		errors.Is(err, ErrTransient), errors.Is(err, ErrDial):
		return true
	case errors.Is(err, ErrUnavailable):
		return true // ambiguous; next() restricts where it may run
	default:
		return false
	}
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
