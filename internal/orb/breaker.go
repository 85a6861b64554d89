package orb

import (
	"errors"

	"repro/internal/breaker"
	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Client-side circuit breaking, layered under the FT-CORBA failover
// path. The failover loop treats "replica answered with an overload
// shed" and "replica never answered" the same way — try the next
// profile — but keeps coming back to the sick endpoint on every lap,
// burning an attempt timeout (or a shed round trip) each time. The
// breaker remembers: after BreakerThreshold consecutive classified
// failures to one endpoint its circuit opens, and the failover loop
// routes around it without spending an attempt. After a cooldown one
// probe invocation is let through (half-open); success re-closes the
// circuit, failure re-opens it with the cooldown doubled (capped), so a
// replica that stays saturated is probed at a decaying rate instead of
// hammered.
//
// The state machine itself lives in the internal/breaker package so the
// real-socket wire plane reuses it verbatim for reconnect gating; this
// file is the ORB-side adapter, binding it to the simulation kernel's
// virtual clock, the per-client jitter stream (o.jrand — one client
// replays identically run to run, distinct clients desynchronise their
// probes), netsim addresses, and the trace/event plumbing.

// BreakerState is one endpoint's circuit state.
type BreakerState int

const (
	// BreakerClosed admits traffic normally.
	BreakerClosed = BreakerState(breaker.Closed)
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen = BreakerState(breaker.Open)
	// BreakerHalfOpen has one probe invocation in flight; its outcome
	// decides between re-closing and re-opening.
	BreakerHalfOpen = BreakerState(breaker.HalfOpen)
)

// String returns the conventional state name.
func (s BreakerState) String() string { return breaker.State(s).String() }

// BreakerTransition records one circuit state change, for scenario
// timelines and assertions.
type BreakerTransition struct {
	At   sim.Time
	Addr netsim.Addr
	From BreakerState
	To   BreakerState
}

// orbBreaker adapts the shared circuit machine to the ORB: endpoint
// keys are netsim addresses, timestamps are virtual time, and every
// transition feeds the transition log, the ORB's bus and a zero-length
// overload-layer span.
type orbBreaker struct {
	o           *ORB
	m           *breaker.Machine
	transitions []BreakerTransition
}

func newBreaker(o *ORB) *orbBreaker {
	cfg := breaker.Config{
		Threshold:   o.cfg.BreakerThreshold,
		Cooldown:    o.cfg.BreakerCooldown,
		CooldownCap: breakerCooldownCap,
	}
	return &orbBreaker{
		o: o,
		m: breaker.New(cfg,
			func() int64 { return int64(o.ep.Kernel().Now()) },
			func(n int64) int64 { return o.jrand.Int63n(n) }),
	}
}

// observe translates a machine transition into the ORB's domain and
// fans it out to the log, the bus and the tracer.
func (b *orbBreaker) observe(addr netsim.Addr, mtr breaker.Transition) {
	tr := BreakerTransition{
		At:   sim.Time(mtr.At),
		Addr: addr,
		From: BreakerState(mtr.From),
		To:   BreakerState(mtr.To),
	}
	b.transitions = append(b.transitions, tr)
	if b.o.bus != nil {
		b.o.bus.PublishAt(tr.At, events.KindBreaker, "orb@"+b.o.name,
			events.F("endpoint", addr.String()),
			events.F("from", tr.From.String()),
			events.F("to", tr.To.String()))
	}
	if b.o.tracer != nil {
		s := b.o.tracer.StartRoot("breaker."+tr.To.String(), trace.LayerOverload)
		s.SetAttr(trace.String("endpoint", addr.String()), trace.String("from", tr.From.String()))
		s.Finish()
	}
}

// allow reports whether an invocation to addr may proceed. When an open
// circuit's cooldown has elapsed it flips to half-open and admits the
// calling invocation as the single probe.
func (b *orbBreaker) allow(addr netsim.Addr) bool {
	ok, tr, changed := b.m.Allow(addr.String())
	if changed {
		b.observe(addr, tr)
	}
	return ok
}

// breakerFailure reports whether err counts against the circuit:
// deliberate overload sheds, deadline misses, and crash timeouts all
// mean the endpoint is not currently delivering useful replies.
// Application exceptions and protocol errors do not trip the breaker —
// the endpoint answered, just not usefully.
func breakerFailure(err error) bool {
	return errorsIsAny(err, ErrOverload, ErrDeadlineExpired, ErrTimeout)
}

// record feeds an invocation outcome into addr's circuit.
func (b *orbBreaker) record(addr netsim.Addr, err error) {
	tr, changed := b.m.Record(addr.String(), err != nil && breakerFailure(err))
	if changed {
		b.observe(addr, tr)
	}
}

// errorsIsAny reports whether err matches any of targets.
func errorsIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// BreakerState returns the circuit state for addr (closed if the
// endpoint has never been invoked).
func (o *ORB) BreakerState(addr netsim.Addr) BreakerState {
	return BreakerState(o.breaker.m.State(addr.String()))
}

// BreakerTransitions returns every circuit transition so far, in order.
func (o *ORB) BreakerTransitions() []BreakerTransition {
	return o.breaker.transitions
}
