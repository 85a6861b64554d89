package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/orb"
	"repro/internal/quo"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/trace"
	"repro/internal/trace/sampling"
	"repro/internal/trace/telemetry"
)

// The SLO experiment runs the causal-attribution plane end to end and
// settles a head-to-head question: under a best-effort flood, does
// multi-window burn-rate alerting beat a raw p95 threshold rule to the
// alarm — while keeping, for every deadline-missed invocation, a
// sampled trace whose critical path names the layer that ate the
// budget?
//
// Topology and load are the monitor experiment's (floodBed: client and
// flood sharing a DiffServ link's best-effort band, flood in the middle
// third), but the adaptation loop is different: the QuO contract reads
// an SLO burn-rate condition, not a latency statistic, and the tracer's
// expensive sinks sit behind a tail-based adaptive sampler with a
// kept-traces budget.
const (
	// sloEscalatedPrio is the EF-band CORBA priority the qosket
	// escalates to when the budget burns.
	sloEscalatedPrio rtcorba.Priority = 100
	// sloLatencyBound is the good/bad boundary: an invocation is bad if
	// it errors or takes longer than this (ms also used by the p95 rule).
	sloLatencyBound = 30 * time.Millisecond
	// sloGoal is the objective: 99.9% of invocations good.
	sloGoal = 0.999
	// sloDeadline is the client's end-to-end deadline; flooded queues
	// push RTTs past it, producing the deadline-missed traces the
	// sampler must keep.
	sloDeadline = 40 * time.Millisecond
	// sloHorizon is the scenario's default length and the time scale
	// its burn-rate pairs are sized on. The pairs stay put when
	// -duration stretches the run: the brown-out's onset is as sharp at
	// any length, and a fast pair scaled to a longer run would react
	// slower than the p95 rule's two ticks.
	sloHorizon = 12 * time.Second
)

// SLOResult is the measured outcome of the SLO scenario.
type SLOResult struct {
	Seed               int64
	Duration           time.Duration
	LoadStart, LoadEnd time.Duration
	Every              time.Duration

	// Client traffic outcome.
	Sent, OK  int
	Deadline  int
	Failed    int
	BulkOffer int64

	// Head-to-head alerting outcome.
	BurnFired    bool
	BurnFiredAt  time.Duration // fast-pair firing time
	AlertFired   bool
	AlertFiredAt time.Duration // raw-p95 rule (For=3) firing time

	// Adaptation outcome.
	Escalate, Deescalate int
	Regions              []quo.RegionSpan
	TimeIn               map[string]time.Duration
	Transitions          int64

	// Sampling outcome.
	Sampling   sampling.Stats
	KeptPerSec float64
	// MissTotal counts deadline-missed invocations with a trace context;
	// MissKept counts those whose trace survived sampling; Guilty is the
	// per-layer histogram of their critical-path guilty layers.
	MissTotal int
	MissKept  int
	Guilty    map[string]int
	// WorstMiss is a kept deadline-missed trace (the slowest), for
	// rendering its critical path.
	WorstMiss trace.TraceID

	SLO      *slo.Tracker
	Kept     *trace.Collector
	Timeline *events.Timeline
	Sampler  *monitor.Sampler
	Reg      *telemetry.Registry
	// Unreconciled lists every counter the timeline's records disagree
	// with (see reconcile); empty when they agree.
	Unreconciled []string
}

// sloMissCapture records the trace context of every deadline-missed
// invocation, so the result can audit the sampler kept them all.
type sloMissCapture struct {
	misses []trace.SpanContext
}

func (c *sloMissCapture) SendRequest(*orb.ClientRequestInfo) {}

func (c *sloMissCapture) ReceiveReply(info *orb.ClientRequestInfo) {
	if errors.Is(info.Err, orb.ErrDeadlineExpired) && info.TraceCtx.Valid() {
		c.misses = append(c.misses, info.TraceCtx)
	}
}

// RunSLO executes the scenario. Duration defaults to 12s with the flood
// in the middle third.
func RunSLO(opt Options) SLOResult {
	dur := opt.duration(sloHorizon)
	const every = 250 * time.Millisecond
	missCap := &sloMissCapture{}
	bed := newFloodBed(opt, dur, every, sloEscalatedPrio, missCap)
	defer bed.sys.Close()
	sys, reg, plane, tr, cliORB, ctxCap := bed.sys, bed.reg, bed.plane, bed.tr, bed.cliORB, bed.ctx

	// The tracer's expensive sink sits behind the adaptive sampler: the
	// kept collector holds only error-class, tail-outlier and
	// budget-limited head traces.
	kept := trace.NewCollector()
	smp := sampling.New(sys.K, sampling.Config{
		BandOf: func(p int64) string {
			if p >= int64(sloEscalatedPrio) {
				return "ef"
			}
			return "be"
		},
	}, kept).Instrument(reg)
	tr.AddSink(smp)

	r := SLOResult{
		Seed:      opt.seed(),
		Duration:  dur,
		LoadStart: bed.loadStart,
		LoadEnd:   bed.loadEnd,
		Every:     every,
		TimeIn:    make(map[string]time.Duration),
		Guilty:    make(map[string]int),
		Timeline:  plane.Timeline,
		Sampler:   plane.Sampler,
		Reg:       reg,
		Kept:      kept,
	}

	// The SLO: 99.9% of invocations complete under the latency bound,
	// burn-rate pairs scaled to the scenario's time scale. slo_burn records
	// land on the same bus as alert rules and region transitions.
	tracker := slo.NewTracker(sys.K, slo.Objective{
		Name: "invoke", Goal: sloGoal, LatencyBound: sloLatencyBound,
		Pairs: slo.ScaledPairs(sloHorizon),
	}, plane.Bus)
	r.SLO = tracker

	rtt := reg.Histogram("app.rtt_ms")
	// rttAll also sees deadline-missed invocations (at their elapsed
	// time), so the p95 threshold rule below is not blinded when a
	// brown-out leaves a window with no successes at all.
	rttAll := reg.Histogram("app.rtt_all_ms")

	// The adaptation loop reads the burn, not the latency: escalate
	// while the worst pairwise burn signals a page, hold the escalation
	// while any budget burn lingers, stand down when it clears.
	burnCond := tracker.Cond("invoke_burn")
	curPrio := rtcorba.Priority(0)
	contract := quo.NewContract("slo", every).
		AddCondition(burnCond).
		AddRegion(quo.Region{Name: "burning", When: func(v quo.Values) bool {
			return v["invoke_burn"] >= 14.4 && curPrio == 0
		}}).
		AddRegion(quo.Region{Name: "protected", When: func(v quo.Values) bool {
			return curPrio != 0 && v["invoke_burn"] >= 1
		}}).
		AddRegion(quo.Region{Name: "normal"}).
		Instrument(reg)
	contract.OnTransition(func(from, to string, _ quo.Values) {
		switch to {
		case "burning":
			if curPrio == 0 {
				curPrio = sloEscalatedPrio
				r.Escalate++
				reg.Counter("adapt.escalations").Inc()
			}
		case "normal":
			if curPrio != 0 {
				curPrio = 0
				r.Deescalate++
				reg.Counter("adapt.deescalations").Inc()
			}
		}
	})
	plane.WireContract(contract)
	hist := quo.NewHistory(sys.K, contract)

	// The raw-latency alternative the burn rate races against: the same
	// 30ms boundary as the SLO's latency bound, with the usual For
	// hysteresis to suppress single-window noise.
	plane.Sampler.AddRule(&monitor.Rule{
		Name: "rtt-p95-high", Series: "app.rtt_all_ms.window",
		Stat: monitor.StatP95, Op: monitor.Above,
		// For=2 deliberately favours the threshold rule: even with only
		// two consecutive hot windows required, the burn rate wins.
		Threshold: float64(sloLatencyBound) / float64(time.Millisecond), For: 2,
	})

	// First firing timestamp of the threshold rule, for the head-to-head
	// comparison (the burn side comes from the tracker's FiredAt).
	plane.Bus.Subscribe(func(rec events.Record) {
		if r.AlertFired || rec.Source != "rule/rtt-p95-high" {
			return
		}
		for _, f := range rec.Fields {
			if f.K == "state" && f.V == "firing" {
				r.AlertFired = true
				r.AlertFiredAt = time.Duration(rec.At)
			}
		}
	}, events.KindAlert)

	// Client: steady request stream with a hard deadline. Every outcome
	// feeds the SLO; successful RTTs also feed the dashboard histogram
	// with the invocation's trace as exemplar.
	bed.cli.Host.Spawn("client", 50, func(th *rtos.Thread) {
		body := make([]byte, 512)
		for th.Now() < sim.Time(dur) {
			r.Sent++
			start := th.Now()
			_, err := cliORB.InvokeOpt(th, bed.ref, "work", body, orb.InvokeOptions{
				Priority: curPrio,
				Deadline: sloDeadline,
			})
			elapsed := time.Duration(th.Now() - start)
			rttAll.Observe(float64(elapsed) / float64(time.Millisecond))
			switch {
			case err == nil:
				r.OK++
				tracker.ObserveLatency(elapsed)
				rtt.ObserveEx(float64(elapsed)/float64(time.Millisecond), telemetry.Exemplar{
					TraceID: uint64(ctxCap.last.Trace),
					SpanID:  uint64(ctxCap.last.Span),
					At:      time.Duration(th.Now()),
				})
			case errors.Is(err, orb.ErrDeadlineExpired):
				r.Deadline++
				tracker.Observe(false)
			default:
				r.Failed++
				tracker.Observe(false)
			}
			th.Sleep(25 * time.Millisecond)
		}
	})

	plane.Start()
	tracker.Start(100 * time.Millisecond)
	contract.Start(sys.K)
	sys.RunUntil(sim.Time(dur + 250*time.Millisecond))
	contract.Stop()
	tracker.Stop()
	plane.Stop()
	tr.FlushOpen()
	smp.FlushOpen()

	r.BulkOffer = bed.bulk
	r.Unreconciled = reconcile(plane.Timeline, bed.poa, bed.lanes, cliORB)
	r.Regions = hist.Spans()
	r.Transitions = contract.Transitions()
	for _, s := range hist.Spans() {
		r.TimeIn[s.Region] += s.DurationAt(sys.K.Now())
	}
	r.Sampling = smp.Stats()
	r.KeptPerSec = float64(r.Sampling.Kept) / dur.Seconds()
	if at, ok := tracker.FiredAt(0); ok {
		r.BurnFired = true
		r.BurnFiredAt = time.Duration(at)
	}

	// Audit: every deadline-missed invocation must have a kept trace,
	// and its critical path must name a guilty layer.
	var worstDur sim.Time
	for _, ctx := range missCap.misses {
		r.MissTotal++
		if !smp.Verdict(ctx.Trace).Keep() || kept.Root(ctx.Trace) == nil {
			continue
		}
		r.MissKept++
		if g := kept.GuiltyLayer(ctx.Trace); g != "" {
			r.Guilty[g]++
		}
		if root := kept.Root(ctx.Trace); root.Ended() && root.Duration() > worstDur {
			worstDur = root.Duration()
			r.WorstMiss = ctx.Trace
		}
	}
	return r
}

// burnWon reports whether the burn-rate pair fired before the raw p95
// rule (or the rule never fired).
func (r SLOResult) burnWon() bool {
	return r.BurnFired && (!r.AlertFired || r.BurnFiredAt < r.AlertFiredAt)
}

// Render prints the causal-latency attribution report: the burn-rate
// state of the objective, the alerting head-to-head, the contract's
// region timeline, the sampler's kept-trace economics, the critical
// path of the slowest kept deadline miss, and the full event timeline.
func (r SLOResult) Render() string {
	end := r.Duration + r.Every
	var b strings.Builder
	fmt.Fprintf(&b, "qosslo: burn-rate SLO plane + tail-based trace sampling (seed %d, %v virtual)\n",
		r.Seed, r.Duration)
	fmt.Fprintf(&b, "flood: best-effort datagrams in [%v, %v) against the server's 8 Mb/s access link\n\n",
		r.LoadStart, r.LoadEnd)

	obj := r.SLO.Objective()
	fmt.Fprintf(&b, "objective: %.3g%% of invocations within %v (budget %.3g%%)\n",
		100*obj.Goal, obj.LatencyBound, 100*(1-obj.Goal))
	b.WriteString(r.SLO.Render() + "\n")

	b.WriteString("alerting head-to-head (same 30ms boundary, flood begins at " + r.LoadStart.String() + "):\n")
	if r.BurnFired {
		fmt.Fprintf(&b, "  burn-rate fast pair fired   %12v  (+%v after flood onset)\n",
			r.BurnFiredAt, r.BurnFiredAt-r.LoadStart)
	} else {
		b.WriteString("  burn-rate fast pair fired   never\n")
	}
	if r.AlertFired {
		fmt.Fprintf(&b, "  p95 rule (For=2) fired      %12v  (+%v after flood onset)\n",
			r.AlertFiredAt, r.AlertFiredAt-r.LoadStart)
	} else {
		b.WriteString("  p95 rule (For=2) fired      never\n")
	}
	if r.burnWon() {
		lead := "unbounded"
		if r.AlertFired {
			lead = (r.AlertFiredAt - r.BurnFiredAt).String()
		}
		fmt.Fprintf(&b, "  winner: burn rate, by %s\n", lead)
	}
	b.WriteString("\n")

	b.WriteString("contract region timeline (conditions read the SLO burn, not raw latency):\n")
	for _, s := range r.Regions {
		fmt.Fprintf(&b, "%12v  %-10s %v\n", time.Duration(s.Start), s.Region, s.DurationAt(end))
	}
	b.WriteString("\n")

	st := r.Sampling
	tb := metrics.NewTable("Tail-based sampling verdicts", "Verdict", "Traces")
	tb.AddRow("keep:error", fmt.Sprint(st.KeepError))
	tb.AddRow("keep:tail", fmt.Sprint(st.KeepTail))
	tb.AddRow("keep:head", fmt.Sprint(st.KeepHead))
	tb.AddRow("drop", fmt.Sprint(st.Dropped))
	tb.AddRow("total", fmt.Sprint(st.Traces))
	b.WriteString(tb.Render())
	fmt.Fprintf(&b, "kept %d of %d traces (%.1f/s against a %g/s head budget), %d resurrected by late spans\n",
		st.Kept, st.Traces, r.KeptPerSec, sampling.HeadBudget, st.Resurrected)
	fmt.Fprintf(&b, "spans stored %d, spans discarded %d\n\n", st.SpansKept, st.SpansDropped)

	fmt.Fprintf(&b, "deadline-miss audit: %d missed invocations, %d with a kept trace\n", r.MissTotal, r.MissKept)
	b.WriteString("critical-path guilty layer across kept misses:\n")
	for _, layer := range []string{"netsim", "poa", "orb", "rtcorba", "overload", "app"} {
		if n := r.Guilty[layer]; n > 0 {
			fmt.Fprintf(&b, "  %-10s %d\n", layer, n)
		}
	}
	if r.WorstMiss != 0 {
		fmt.Fprintf(&b, "\nslowest kept miss (trace %d) critical path:\n", r.WorstMiss)
		b.WriteString(r.Kept.RenderCriticalPath(r.WorstMiss))
	}

	b.WriteString("\nslo_burn / alert / region timeline:\n")
	b.WriteString(r.Timeline.Render(events.KindSLOBurn, events.KindAlert, events.KindRegion))
	b.WriteString("\nevent counts by kind:\n")
	b.WriteString(r.Timeline.RenderCounts())

	b.WriteString("\nclosed-loop summary:\n")
	fmt.Fprintf(&b, "  client invocations   %d sent, %d ok, %d deadline-expired, %d failed\n",
		r.Sent, r.OK, r.Deadline, r.Failed)
	fmt.Fprintf(&b, "  flood offered        %d datagrams\n", r.BulkOffer)
	fmt.Fprintf(&b, "  qosket actions       %d escalation(s) to the EF band, %d de-escalation(s)\n",
		r.Escalate, r.Deescalate)
	for _, reg := range []string{"normal", "burning", "protected"} {
		fmt.Fprintf(&b, "  time in %-12s %v\n", reg, r.TimeIn[reg])
	}

	b.WriteString("\nfull event timeline:\n")
	b.WriteString(r.Timeline.Render())
	return b.String()
}

// Checks states the scenario's verdicts as claims: burn-rate alerting
// beats the raw p95 rule to the alarm, and the bus records reconcile
// with the counters of the layers that published them.
func (r SLOResult) Checks() []metrics.Check {
	lead := "burn never fired"
	switch {
	case r.BurnFired && r.AlertFired:
		lead = fmt.Sprintf("burn %v, p95 rule %v", r.BurnFiredAt, r.AlertFiredAt)
	case r.BurnFired:
		lead = fmt.Sprintf("burn %v, p95 rule never", r.BurnFiredAt)
	}
	return []metrics.Check{
		{Experiment: "SLO", Claim: "burn-rate alerting fires before the raw p95 threshold rule", OK: r.burnWon(), Detail: lead},
		reconciled("SLO", r.Unreconciled),
	}
}
