package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// SoakConfig parameterises RunSoak. The zero value runs the default
// seeded soak: 10k logical requests, mixed EF/BE, latency torture on the
// BE primary and a kill/restart of it mid-run.
type SoakConfig struct {
	// Seed fixes every random stream in the run (0 = 1).
	Seed int64
	// Requests is the total logical request count (default 10000).
	Requests int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// The soak's shape. The bounds its Checks test (DESIGN §13) were
// measured against these values.
const (
	// soakConcurrency caps in-flight requests.
	soakConcurrency = 64
	// soakEFEvery makes every Nth request expedited.
	soakEFEvery = 3
	// soakRequestTimeout bounds each logical request end to end,
	// failover attempts included.
	soakRequestTimeout = 750 * time.Millisecond
	// soakWarmFraction is the share of requests issued fault-free first
	// to establish the latency baseline.
	soakWarmFraction = 0.25
	// soakTortureLatency is the per-chunk latency injected on the BE
	// primary's proxy during the fault phase.
	soakTortureLatency = 25 * time.Millisecond
	// soakKillFor is how long the BE primary stays dead mid-fault-phase.
	soakKillFor = 400 * time.Millisecond
)

// SoakReport is the measured outcome of one soak run, including the
// values its claims (Checks) are tested against.
type SoakReport struct {
	Seed     int64
	Requests int
	Outcomes map[string]int

	// Duplicates counts logical requests the servants executed more
	// than once — the at-most-once invariant demands zero.
	Duplicates int
	// Lost counts issued requests that never completed — the no-silence
	// invariant demands zero (every request ends in a reply or a
	// classified refusal/timeout).
	Lost int
	// Unclassified counts completions outside the known error taxonomy
	// (must be zero: silence and mystery are both losses).
	Unclassified int

	EFBaselineP50Ms float64
	EFBaselineP99Ms float64
	EFFaultP50Ms    float64
	EFFaultP99Ms    float64
	BEBaselineP99Ms float64
	BEFaultP99Ms    float64

	// ServiceGapMs is the longest gap between consecutive BE successes
	// across the whole run — the service-level recovery bound: killing
	// the BE primary must not open a hole wider than the documented
	// failover budget.
	ServiceGapMs float64
	// RedetectMs is how long after the primary's restart the health
	// prober took to mark it up again (-1 if it never did).
	RedetectMs float64

	FailoverP50Ms     float64
	FailoverP99Ms     float64
	Failovers         int
	RetryBudgetSpent  int64
	RetryBudgetDenied int64

	WallMs float64
}

// soakOutcome is one logical request's fate.
type soakOutcome struct {
	ef      bool
	warm    bool
	ok      bool
	class   string
	startMs float64
	endMs   float64
}

// RunSoak drives the canonical chaos topology — servers A and B, a
// chaos proxy fronting A, a best-effort group preferring the proxied A
// and an expedited group preferring the clean B — through a warm
// baseline phase and a fault phase (latency torture plus a kill/restart
// of the BE primary), returning measurements for the robustness
// invariants its Checks state: at-most-once execution, no silent
// losses, bounded failover recovery, and EF latency isolation while BE
// is tortured.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 10000
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Servants on both replicas count executions per logical request id
	// — the ground truth the at-most-once invariant is checked against.
	var execMu sync.Mutex
	execCounts := make(map[string]int)
	handler := wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
		execMu.Lock()
		execCounts[string(req.Body)]++
		execMu.Unlock()
		return req.Body, nil
	})

	newServer := func(name string) (*wire.Server, string, error) {
		srv, err := wire.NewServer(wire.ServerConfig{Name: "wire.server." + name})
		if err != nil {
			return nil, "", err
		}
		srv.Register("app/soak", handler)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		return srv, addr.String(), nil
	}
	srvA, addrA, err := newServer("a")
	if err != nil {
		return nil, err
	}
	defer srvA.Shutdown(2 * time.Second)
	srvB, addrB, err := newServer("b")
	if err != nil {
		return nil, err
	}
	defer srvB.Shutdown(2 * time.Second)

	proxy, err := New(Config{
		Target: addrA,
		Seed:   cfg.Seed,
		Name:   "chaos.proxyA",
	})
	if err != nil {
		return nil, err
	}
	if err := proxy.Start(); err != nil {
		return nil, err
	}
	defer proxy.Close()

	newGroup := func(name string, endpoints []string, seed int64) (*wire.GroupClient, error) {
		return wire.NewGroupClient(wire.GroupConfig{
			Endpoints: endpoints,
			Client: wire.ClientConfig{
				RequestTimeout: soakRequestTimeout,
				DialTimeout:    250 * time.Millisecond,
				Name:           name,
				Seed:           seed,
			},
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  200 * time.Millisecond,
		})
	}
	// BE prefers the tortured path; EF prefers the clean replica. Both
	// can reach both, so every failover direction is exercised.
	beGroup, err := newGroup("wire.group.be", []string{proxy.Addr(), addrB}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer beGroup.Close()
	efGroup, err := newGroup("wire.group.ef", []string{addrB, proxy.Addr()}, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	defer efGroup.Close()

	base := time.Now()
	sinceMs := func() float64 { return float64(time.Since(base)) / float64(time.Millisecond) }
	outcomes := make([]soakOutcome, cfg.Requests)
	var wg sync.WaitGroup
	sem := make(chan struct{}, soakConcurrency)
	issue := func(i int, warm bool) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ef := i%soakEFEvery == 0
			g, prio := beGroup, int16(0)
			if ef {
				g, prio = efGroup, wire.EFPriority
			}
			// A slice of the load is declared idempotent (safe to
			// re-execute), so ambiguous failures exercise cross-endpoint
			// failover too; the rest is non-idempotent and held to the
			// strict at-most-once invariant. Idempotent ids get a
			// distinct prefix because re-execution is legal for them.
			idem := ef || i%5 == 1
			prefix := "once"
			if idem {
				prefix = "many"
			}
			body := []byte(fmt.Sprintf("%s-%d", prefix, i))
			startMs := sinceMs()
			_, err := g.Invoke("app/soak", "soak", body, wire.CallOptions{Priority: prio, Idempotent: idem})
			outcomes[i] = soakOutcome{
				ef: ef, warm: warm, ok: err == nil,
				class: classify(err), startMs: startMs, endMs: sinceMs(),
			}
		}()
	}

	warmN := int(float64(cfg.Requests) * soakWarmFraction)
	logf("soak: warm phase, %d requests", warmN)
	for i := 0; i < warmN; i++ {
		issue(i, true)
	}
	wg.Wait()

	// Fault phase: latency torture on the BE primary for the whole
	// phase, with a kill/restart window once load is flowing again.
	logf("soak: fault phase, %d requests, torture=%v kill=%v",
		cfg.Requests-warmN, soakTortureLatency, soakKillFor)
	proxy.Inject(Fault{Kind: FaultLatency, Latency: soakTortureLatency, Duration: time.Hour})
	var restoreAtMs float64
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(soakKillFor) // let faulted load flow before the kill
		proxy.Kill()
		logf("soak: killed BE primary at %.0fms", sinceMs())
		time.Sleep(soakKillFor)
		if err := proxy.Restart(); err != nil {
			logf("soak: restart failed: %v", err)
			restoreAtMs = -1
			return
		}
		restoreAtMs = sinceMs()
		logf("soak: restarted BE primary at %.0fms", restoreAtMs)
	}()
	for i := warmN; i < cfg.Requests; i++ {
		issue(i, false)
	}
	wg.Wait()
	<-killDone

	// Redetection: the BE group's prober must mark the restored primary
	// healthy again within a few probe periods.
	redetect := -1.0
	if restoreAtMs >= 0 {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if beGroup.Healthy(0) {
				redetect = sinceMs() - restoreAtMs
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	rep := &SoakReport{
		Seed:       cfg.Seed,
		Requests:   cfg.Requests,
		Outcomes:   make(map[string]int),
		RedetectMs: redetect,
		WallMs:     sinceMs(),
	}
	var efWarm, efFault, beWarm, beFault []float64
	var beOkEnds []float64
	for i := range outcomes {
		o := &outcomes[i]
		if o.endMs == 0 && o.startMs == 0 && o.class == "" {
			rep.Lost++
			continue
		}
		rep.Outcomes[o.class]++
		if o.class == "unclassified" {
			rep.Unclassified++
		}
		dur := o.endMs - o.startMs
		switch {
		case o.ef && o.warm:
			efWarm = append(efWarm, dur)
		case o.ef:
			efFault = append(efFault, dur)
		case o.warm:
			beWarm = append(beWarm, dur)
		default:
			beFault = append(beFault, dur)
		}
		if !o.ef && o.ok {
			beOkEnds = append(beOkEnds, o.endMs)
		}
	}
	for id, n := range execCounts {
		if n > 1 && strings.HasPrefix(id, "once-") {
			rep.Duplicates++
		}
	}
	efW, efF := metrics.Summarize(efWarm), metrics.Summarize(efFault)
	rep.EFBaselineP50Ms, rep.EFBaselineP99Ms = efW.P50, efW.P99
	rep.EFFaultP50Ms, rep.EFFaultP99Ms = efF.P50, efF.P99
	rep.BEBaselineP99Ms = metrics.Summarize(beWarm).P99
	rep.BEFaultP99Ms = metrics.Summarize(beFault).P99

	sort.Float64s(beOkEnds)
	for i := 1; i < len(beOkEnds); i++ {
		if gap := beOkEnds[i] - beOkEnds[i-1]; gap > rep.ServiceGapMs {
			rep.ServiceGapMs = gap
		}
	}

	fo := beGroup.Registry().Histogram("wire.group.failover_ms").Summary()
	rep.FailoverP50Ms, rep.FailoverP99Ms = fo.P50, fo.P99
	rep.Failovers = fo.N
	rep.RetryBudgetSpent = beGroup.Budget().Spent() + efGroup.Budget().Spent()
	rep.RetryBudgetDenied = beGroup.Budget().Denied() + efGroup.Budget().Denied()
	logf("soak: done in %.0fms: %v, dup=%d lost=%d gap=%.0fms",
		rep.WallMs, rep.Outcomes, rep.Duplicates, rep.Lost, rep.ServiceGapMs)
	return rep, nil
}

// Render prints the report as the qosbench summary block.
func (r *SoakReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak (seed %d): %d logical requests in %.0fms\n", r.Seed, r.Requests, r.WallMs)
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("  outcomes:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Outcomes[k])
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  EF p50/p99 ms: baseline %.2f/%.2f, under BE torture %.2f/%.2f\n",
		r.EFBaselineP50Ms, r.EFBaselineP99Ms, r.EFFaultP50Ms, r.EFFaultP99Ms)
	fmt.Fprintf(&b, "  BE p99 ms: baseline %.2f, under torture %.2f\n", r.BEBaselineP99Ms, r.BEFaultP99Ms)
	fmt.Fprintf(&b, "  failovers: %d (p50 %.1fms, p99 %.1fms); BE success gap max %.0fms; primary re-detected %.0fms after restart\n",
		r.Failovers, r.FailoverP50Ms, r.FailoverP99Ms, r.ServiceGapMs, r.RedetectMs)
	fmt.Fprintf(&b, "  retry budget: spent %d, denied %d\n", r.RetryBudgetSpent, r.RetryBudgetDenied)
	return b.String()
}

// The soak's bounds. The recovery bound is one kill window
// (soakKillFor) plus the failover budget documented in DESIGN §13; the
// EF isolation bound is a ratio to the fault-free baseline with a floor,
// so a sub-millisecond loopback baseline does not make it degenerate.
const (
	soakRecoveryBoundMs = 2000
	soakEFRatio         = 5
	soakEFFloorMs       = 2
)

// Checks states the soak's robustness invariants as claims:
// at-most-once execution, no silent loss, bounded recovery from the
// primary's kill, EF isolation while BE is tortured, and a run that
// mostly succeeded (so the other claims measured something).
func (r *SoakReport) Checks() []metrics.Check {
	efBound := soakEFRatio * max(r.EFBaselineP99Ms, soakEFFloorMs)
	oks := r.Outcomes["ok"]
	redetect := "never"
	if r.RedetectMs >= 0 {
		redetect = fmt.Sprintf("%.0fms after restart", r.RedetectMs)
	}
	return []metrics.Check{
		{Experiment: "Chaos", Claim: "no logical request executes twice (at-most-once)",
			OK: r.Duplicates == 0, Detail: fmt.Sprintf("%d duplicated", r.Duplicates)},
		{Experiment: "Chaos", Claim: "every issued request completes (no silent loss)",
			OK: r.Lost == 0, Detail: fmt.Sprintf("%d lost", r.Lost)},
		{Experiment: "Chaos", Claim: "every failure falls in the error taxonomy",
			OK: r.Unclassified == 0, Detail: fmt.Sprintf("%d unclassified", r.Unclassified)},
		{Experiment: "Chaos", Claim: "killing the BE primary opens no BE success gap of 2s or more",
			OK: r.ServiceGapMs < soakRecoveryBoundMs, Detail: fmt.Sprintf("max gap %.0fms", r.ServiceGapMs)},
		{Experiment: "Chaos", Claim: "the restored primary is re-detected within 2s",
			OK: r.RedetectMs >= 0 && r.RedetectMs < soakRecoveryBoundMs, Detail: redetect},
		{Experiment: "Chaos", Claim: "EF p99 under BE torture stays within 5x its baseline (floor 2ms)",
			OK: r.EFFaultP99Ms <= efBound, Detail: fmt.Sprintf("%.2fms (bound %.2fms)", r.EFFaultP99Ms, efBound)},
		{Experiment: "Chaos", Claim: "at least half the requests succeed",
			OK: oks >= r.Requests/2, Detail: fmt.Sprintf("%d of %d ok", oks, r.Requests)},
	}
}

// classify maps an invocation error onto the wire taxonomy; anything
// outside it is "unclassified" and trips the no-silence invariant.
func classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, wire.ErrDeadlineExpired):
		return "timeout"
	case errors.Is(err, wire.ErrOverload):
		return "overload"
	case errors.Is(err, wire.ErrTransient):
		return "transient"
	case errors.Is(err, wire.ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, wire.ErrDial):
		return "dial"
	case errors.Is(err, wire.ErrUnavailable):
		return "unavailable"
	case errors.Is(err, wire.ErrShutdown):
		return "shutdown"
	case errors.Is(err, wire.ErrProtocol), errors.Is(err, wire.ErrObjectNotExist):
		return "protocol"
	default:
		return "unclassified"
	}
}
