package orb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// TestBreakerStateMachine drives one endpoint's circuit directly
// through closed → open → half-open → open (failed probe, doubled
// cooldown) → half-open → closed, pinning every transition.
func TestBreakerStateMachine(t *testing.T) {
	k := sim.NewKernel(1)
	n := netsim.New(k)
	nd := n.AddHost("c")
	h := rtos.NewHost(k, "c", rtos.HostConfig{})
	o := New("cli", h, n, nd, Config{BreakerThreshold: 3, BreakerCooldown: 100 * time.Millisecond})
	addr := netsim.Addr{Node: 42, Port: 1}

	// Below threshold the circuit stays closed; a success resets the run.
	for i := 0; i < 2; i++ {
		o.breaker.record(addr, ErrOverload)
	}
	o.breaker.record(addr, nil)
	for i := 0; i < 2; i++ {
		o.breaker.record(addr, ErrOverload)
	}
	if got := o.BreakerState(addr); got != BreakerClosed {
		t.Fatalf("state after interrupted failure runs = %v, want closed", got)
	}
	// Non-breaker failures (the endpoint answered) never trip it.
	o.breaker.record(addr, ErrObjectNotExist)
	o.breaker.record(addr, ErrTransient)
	if got := o.BreakerState(addr); got != BreakerClosed {
		t.Fatalf("state after non-breaker errors = %v, want closed", got)
	}

	// Three consecutive classified failures open it.
	o.breaker.record(addr, ErrOverload)
	o.breaker.record(addr, ErrDeadlineExpired)
	o.breaker.record(addr, ErrTimeout)
	if got := o.BreakerState(addr); got != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, got)
	}
	if o.breaker.allow(addr) {
		t.Fatal("open circuit admitted traffic before cooldown")
	}

	// After cooldown (+ at most cooldown/4 jitter) one probe is allowed.
	k.RunUntil(k.Now() + sim.Time(125*time.Millisecond))
	if !o.breaker.allow(addr) {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if got := o.BreakerState(addr); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if o.breaker.allow(addr) {
		t.Fatal("half-open circuit admitted a second concurrent probe")
	}

	// Failed probe: back to open with the cooldown doubled.
	o.breaker.record(addr, ErrTimeout)
	if got := o.BreakerState(addr); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	k.RunUntil(k.Now() + sim.Time(150*time.Millisecond))
	if o.breaker.allow(addr) {
		t.Fatal("re-opened circuit admitted traffic before the doubled cooldown")
	}
	k.RunUntil(k.Now() + sim.Time(150*time.Millisecond))
	if !o.breaker.allow(addr) {
		t.Fatal("doubled cooldown elapsed but probe refused")
	}

	// Successful probe: closed again, cooldown reset.
	o.breaker.record(addr, nil)
	if got := o.BreakerState(addr); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if cd := o.breaker.m.Cooldown(addr.String()); cd != 100*time.Millisecond {
		t.Fatalf("cooldown after recovery = %v, want reset to 100ms", cd)
	}

	// The transition log captured the full journey, in order.
	var got []string
	for _, tr := range o.BreakerTransitions() {
		got = append(got, tr.From.String()+">"+tr.To.String())
	}
	want := []string{
		"closed>open", "open>half-open", "half-open>open",
		"open>half-open", "half-open>closed",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

// TestBreakerRoutesAroundSaturatedReplica is the end-to-end check: a
// group whose primary sheds everything gets its primary's circuit
// opened after BreakerThreshold invocations; after that the client goes
// straight to the healthy backup without touching the primary again.
func TestBreakerRoutesAroundSaturatedReplica(t *testing.T) {
	r := newFTRig(t, 2, Config{BreakerThreshold: 3, BreakerCooldown: 10 * time.Second})
	// Primary: single-slot lane saturated by two long oneways.
	sat := &blockerServant{delay: time.Hour}
	poa0, _ := r.servers[0].CreatePOA("app", POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1, QueueLimit: 1}},
	})
	ref0, _ := poa0.Activate("obj", sat)
	healthy := &echoServant{}
	ref1 := r.activate(t, 1, healthy)
	ref := groupRef(11, ref0, ref1)

	results := make([]error, 8)
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_ = r.client.InvokeOneway(th, ref0, "work", nil)
		_ = r.client.InvokeOneway(th, ref0, "work", nil)
		th.Sleep(10 * time.Millisecond)
		for i := range results {
			_, results[i] = r.client.Invoke(th, ref, "work", nil)
			th.Sleep(50 * time.Millisecond)
		}
	})
	r.k.RunUntil(30 * time.Second)

	for i, err := range results {
		if err != nil {
			t.Fatalf("invocation %d failed: %v (backup is healthy)", i, err)
		}
	}
	if healthy.calls != len(results) {
		t.Fatalf("backup executed %d, want %d", healthy.calls, len(results))
	}
	if got := r.client.BreakerState(ref0.Addr); got != BreakerOpen {
		t.Fatalf("primary circuit = %v, want open", got)
	}
	// The primary saw exactly BreakerThreshold refusals; once open, no
	// more traffic reached it.
	if got := poa0.Pool().Stats(0).Refused; got != 3 {
		t.Fatalf("primary refusals = %d, want exactly the 3 pre-open probes", got)
	}
	if got := r.client.BreakerState(ref1.Addr); got != BreakerClosed {
		t.Fatalf("backup circuit = %v, want closed", got)
	}
}

// TestBreakerReclosesAfterRecovery completes the loop: when the
// saturated replica drains, the next post-cooldown probe succeeds and
// the circuit re-closes. Every transition and every lane discard reaches
// the bus once, from the ORB and the POA pool that decided it.
func TestBreakerReclosesAfterRecovery(t *testing.T) {
	r := newFTRig(t, 2, Config{BreakerThreshold: 2, BreakerCooldown: 200 * time.Millisecond})
	bus := events.NewBus(r.k)
	log := events.NewTimeline(bus)
	r.client.SetBus(bus)
	r.servers[0].SetBus(bus)
	// The primary is saturated for ~2s (two 1s dispatches through a
	// single-slot lane); once those drain it answers instantly.
	satCalls := 0
	sat := ServantFunc(func(req *ServerRequest) ([]byte, error) {
		satCalls++
		if satCalls <= 2 {
			req.Thread.Compute(time.Second)
		}
		return req.Body, nil
	})
	poa0, _ := r.servers[0].CreatePOA("app", POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1, QueueLimit: 1}},
	})
	ref0, _ := poa0.Activate("obj", sat)
	backup := &echoServant{}
	ref1 := r.activate(t, 1, backup)
	ref := groupRef(13, ref0, ref1)

	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_ = r.client.InvokeOneway(th, ref0, "work", nil)
		_ = r.client.InvokeOneway(th, ref0, "work", nil)
		th.Sleep(10 * time.Millisecond)
		// Invoke every 300ms for 4s: opens on the saturated primary,
		// probes it each cooldown, re-closes once it drains.
		for i := 0; i < 13; i++ {
			_, _ = r.client.Invoke(th, ref, "work", nil)
			th.Sleep(300 * time.Millisecond)
		}
	})
	r.k.RunUntil(30 * time.Second)

	if got := r.client.BreakerState(ref0.Addr); got != BreakerClosed {
		t.Fatalf("primary circuit = %v, want re-closed after recovery", got)
	}
	var toStates []BreakerState
	for _, tr := range r.client.BreakerTransitions() {
		if tr.Addr == ref0.Addr {
			toStates = append(toStates, tr.To)
		}
	}
	if len(toStates) < 3 || toStates[0] != BreakerOpen || toStates[len(toStates)-1] != BreakerClosed {
		t.Fatalf("primary transition targets = %v, want open … closed", toStates)
	}
	// After re-close the primary serves again: its servant eventually
	// ran a probe or post-recovery invocation to completion.
	if satCalls < 3 {
		t.Fatalf("primary dispatched %d, want the 2 saturating calls plus a successful probe", satCalls)
	}

	var trips, want []string
	sheds := 0
	for _, rec := range log.Records() {
		switch {
		case rec.Kind == events.KindBreaker && rec.Source == "orb@"+r.client.name:
			trips = append(trips, fmt.Sprint(rec.At, rec.Fields))
		case rec.Kind == events.KindShed && rec.Source == "pool/"+r.servers[0].name+"/app":
			sheds++
		default:
			t.Errorf("unexpected record %v", rec)
		}
	}
	for _, tr := range r.client.BreakerTransitions() {
		want = append(want, fmt.Sprint(tr.At, []events.Field{
			events.F("endpoint", tr.Addr.String()), events.F("from", tr.From.String()), events.F("to", tr.To.String())}))
	}
	if fmt.Sprint(trips) != fmt.Sprint(want) {
		t.Errorf("KindBreaker records %v, transition log %v", trips, want)
	}
	if st := poa0.Pool().Stats(0); int64(sheds) != st.Refused+st.Evicted+st.Deadline || sheds == 0 {
		t.Errorf("%d KindShed records, lane stats %+v", sheds, st)
	}
}

// TestBreakerAllOpenFailsFast pins the degenerate case: when every
// profile's circuit is open the invocation fails immediately instead of
// burning attempt timeouts against known-sick replicas.
func TestBreakerAllOpenFailsFast(t *testing.T) {
	r := newFTRig(t, 2, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		AttemptTimeout:   100 * time.Millisecond,
	})
	var refs [2]*ObjectRef
	for i := range refs {
		refs[i] = r.activate(t, i, &echoServant{})
	}
	ref := groupRef(17, refs[0], refs[1])
	r.crash(0)
	r.crash(1)

	var warmErr, fastErr error
	var fastElapsed sim.Time
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		// First invocations burn attempts and open both circuits.
		_, warmErr = r.client.Invoke(th, ref, "work", nil)
		_, _ = r.client.Invoke(th, ref, "work", nil)
		start := th.Now()
		_, fastErr = r.client.Invoke(th, ref, "work", nil)
		fastElapsed = th.Now() - start
	})
	r.k.RunUntil(30 * time.Second)

	if warmErr == nil {
		t.Fatal("invocation on a dead group succeeded")
	}
	if fastErr == nil || !strings.Contains(fastErr.Error(), "circuit-open") {
		t.Fatalf("fast-fail err = %v, want all-endpoints-circuit-open", fastErr)
	}
	if !errors.Is(fastErr, ErrTimeout) && !errors.Is(fastErr, ErrOverload) {
		t.Fatalf("fast-fail err = %v, want to wrap the last classified failure", fastErr)
	}
	if fastElapsed > 10*time.Millisecond {
		t.Fatalf("all-open invocation took %v, want immediate failure", fastElapsed)
	}
}
