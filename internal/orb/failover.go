package orb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/trace"
)

// Client-side fault tolerance, FT-CORBA style. An invocation on a group
// reference (ObjectRef.Group != 0) is retried across the reference's
// profiles when an attempt fails with a failure that plausibly means
// "replica is dead" — a reply timeout (crashed or partitioned host) or
// OBJECT_NOT_EXIST (replica removed but the reference is stale). Every
// attempt of one logical invocation carries the same FT request service
// context (group id, client id, retention id), so a replica that already
// executed the request replies from its completed-request cache instead
// of executing it twice: retries stay at-most-once per replica.
//
// Retries back off exponentially (capped) with deterministic per-client
// jitter: the jitter stream is seeded from the ORB's name, so one client
// replays identically run to run while distinct clients desynchronise —
// no thundering herd onto a just-promoted backup, yet the simulation
// stays reproducible.

// maxForwardHops bounds a LOCATION_FORWARD chain so misconfigured
// servers forwarding in a cycle cannot hang the client.
const maxForwardHops = 4

// ForwardRequest is the error a servant returns to redirect the client
// to another object. The server ORB turns it into a GIOP reply with
// StatusLocationForward carrying the stringified target reference; the
// client ORB transparently re-issues the request there. This is how a
// demoted replica hands callers over to the new primary.
type ForwardRequest struct {
	Ref *ObjectRef
}

// Error implements error.
func (f *ForwardRequest) Error() string {
	return fmt.Sprintf("orb: forward to %v", f.Ref.Addr)
}

// forwardedError surfaces a LOCATION_FORWARD reply from the wire layer
// to the invocation loop, which follows it instead of failing.
type forwardedError struct {
	ref *ObjectRef
}

func (e *forwardedError) Error() string {
	return fmt.Sprintf("orb: location forward to %v", e.ref.Addr)
}

// retryable reports whether an attempt failure should trigger failover
// to the next profile of a group reference. Timeouts mean the replica
// (or the path to it) is dead; OBJECT_NOT_EXIST means the replica no
// longer hosts the object; an overload shed or protocol error means
// this replica cannot serve the request right now but another might.
// ErrDeadlineExpired is NOT retryable — the budget is gone everywhere.
// TRANSIENT and application exceptions are delivered to the caller: the
// replica is alive and answered.
func retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrObjectNotExist) ||
		errors.Is(err, ErrOverload) || errors.Is(err, ErrProtocol)
}

// invokeRouted routes one logical invocation: a single attempt for
// plain references, the profile-walking retry loop for group
// references. LOCATION_FORWARD replies are followed in both cases.
func (o *ORB) invokeRouted(t *rtos.Thread, ref *ObjectRef, op string, body []byte, prio rtcorba.Priority, opts InvokeOptions, info *ClientRequestInfo) ([]byte, error) {
	// All attempts of one logical invocation share one retention id, so
	// replicas can suppress duplicate executions.
	var extra []giop.ServiceContext
	maxAttempts := 1
	timeout := opts.Timeout
	if ref.Group != 0 {
		o.ftSeq++
		extra = append(extra, giop.FTRequestContext(ref.Group, o.clientID, o.ftSeq, o.cfg.ByteOrder))
		maxAttempts = 2 * (1 + len(ref.Alternates))
		if timeout == 0 {
			// A group invocation must not block forever on a dead
			// replica: detection is what the alternates are for.
			timeout = o.cfg.AttemptTimeout
		}
	}

	backoff := o.cfg.BackoffBase
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		// The end-to-end deadline bounds the whole failover loop, not
		// just individual attempts: once it passes (e.g. burned by
		// backoff sleeps), further retries can only deliver a late reply.
		if info.Deadline > 0 && o.ep.Kernel().Now() > info.Deadline {
			o.shedExpired(info, "failover")
			return nil, ErrDeadlineExpired
		}
		p := ref.profile(attempt)
		if ref.Group != 0 && !o.breaker.allow(p.Addr) {
			// This endpoint's circuit is open: route around it without
			// burning an attempt timeout. If every profile is open the
			// invocation fails fast instead of queueing onto known-sick
			// replicas.
			alt, ok := o.breakerAlternative(ref, attempt)
			if !ok {
				if lastErr == nil {
					lastErr = ErrOverload
				}
				return nil, fmt.Errorf("orb: group %d: all endpoints circuit-open: %w", ref.Group, lastErr)
			}
			p = alt
		}
		var fspan *trace.Span
		if attempt > 0 {
			// Capped exponential backoff with per-client jitter in
			// [backoff/2, 3*backoff/2).
			if o.tracer != nil && info.TraceCtx.Valid() {
				fspan = o.tracer.StartChild(info.TraceCtx, "failover", trace.LayerFT)
				fspan.SetAttr(trace.Int("attempt", int64(attempt)))
				fspan.SetAttr(trace.String("to", p.Addr.String()))
				fspan.SetAttr(trace.String("cause", lastErr.Error()))
			}
			t.Sleep(backoff/2 + time.Duration(o.jrand.Int63n(int64(backoff))))
			backoff *= 2
			if backoff > backoffCap {
				backoff = backoffCap
			}
		}
		reply, err := o.invokeProfile(t, p, op, body, prio, opts, timeout, info, extra)
		if ref.Group != 0 {
			o.breaker.record(p.Addr, err)
		}
		if fspan != nil {
			if err != nil {
				fspan.SetAttr(trace.String("error", err.Error()))
			}
			fspan.Finish()
		}
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if ref.Group == 0 || !retryable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("orb: group %d exhausted %d failover attempts: %w", ref.Group, maxAttempts, lastErr)
}

// breakerAlternative scans the profile list (starting after the refused
// slot, wrapping once) for an endpoint whose circuit admits traffic.
func (o *ORB) breakerAlternative(ref *ObjectRef, attempt int) (Profile, bool) {
	for i := 1; i <= 1+len(ref.Alternates); i++ {
		p := ref.profile(attempt + i)
		if o.breaker.allow(p.Addr) {
			return p, true
		}
	}
	return Profile{}, false
}

// invokeProfile performs one attempt against one profile, transparently
// following LOCATION_FORWARD redirections.
func (o *ORB) invokeProfile(t *rtos.Thread, p Profile, op string, body []byte, prio rtcorba.Priority, opts InvokeOptions, timeout time.Duration, info *ClientRequestInfo, extra []giop.ServiceContext) ([]byte, error) {
	for hop := 0; ; hop++ {
		reply, err := o.invokeOnce(t, p, op, body, prio, opts, timeout, info, extra)
		if err == nil {
			return reply, nil
		}
		var fwd *forwardedError
		if !errors.As(err, &fwd) {
			return reply, err
		}
		if hop >= maxForwardHops {
			return nil, fmt.Errorf("orb: LOCATION_FORWARD chain exceeded %d hops", maxForwardHops)
		}
		p = Profile{Addr: fwd.ref.Addr, Key: fwd.ref.Key}
	}
}

// decodeForward parses the body of a StatusLocationForward reply: a CDR
// string holding the stringified forward reference.
func decodeForward(body []byte, order cdr.ByteOrder) (*ObjectRef, error) {
	d := cdr.NewDecoder(body, order)
	s, err := d.String()
	if err != nil {
		return nil, fmt.Errorf("orb: bad LOCATION_FORWARD body: %w", err)
	}
	return ParseRef(s)
}

// encodeForward builds the StatusLocationForward reply body.
func encodeForward(ref *ObjectRef, order cdr.ByteOrder) []byte {
	e := cdr.NewEncoder(order)
	e.PutString(ref.String())
	return e.Bytes()
}
