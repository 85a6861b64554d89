package experiments

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/monitor"
	"repro/internal/netsim"
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
// Topology and load mirror the monitor experiment (client and flood
// sharing a DiffServ link's best-effort band, flood in the middle
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
)

// SLOResult is the measured outcome of the SLO scenario.
type SLOResult struct {
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
	dur := opt.duration(12 * time.Second)
	loadStart, loadEnd := dur/3, 2*dur/3
	const every = 250 * time.Millisecond

	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	loadm := sys.AddMachine("load", rtos.HostConfig{})
	srv := sys.AddMachine("srv", rtos.HostConfig{})
	rtr := sys.AddRouter("rtr")
	link := func(a, b *netsim.Node, bps float64) {
		sys.Net.ConnectSym(a, b, netsim.LinkConfig{
			Bps:   bps,
			Delay: time.Millisecond,
			Queue: netsim.NewDiffServ(32*1024, netsim.NewFIFO(64*1024)),
		})
	}
	link(cli.Node, rtr, 10e6)
	link(loadm.Node, rtr, 10e6)
	link(rtr, srv.Node, 8e6)

	reg := telemetry.NewRegistry()
	plane := monitor.NewPlane(sys.K, reg, every)
	sys.Net.SetBus(plane.Bus)

	// The tracer's expensive sink sits behind the adaptive sampler: the
	// kept collector holds only error-class, tail-outlier and
	// budget-limited head traces.
	tr := trace.NewTracer(sys.K)
	sys.Net.SetTracer(tr)
	plane.WireTracer(tr)
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

	cliORB := cli.ORB(orb.Config{NetMapping: rtcorba.BandedDSCPMapping{
		Bands: []rtcorba.DSCPBand{{From: sloEscalatedPrio, DSCP: netsim.DSCPEF}},
	}})
	srvORB := srv.ORB(orb.Config{})
	cliORB.EnableTracing(tr)
	srvORB.EnableTracing(tr)
	cliORB.AddClientInterceptor(&orb.TelemetryProbe{Reg: reg})
	missCap := &sloMissCapture{}
	cliORB.AddClientInterceptor(missCap)
	ctxCap := &traceCtxCapture{}
	cliORB.AddClientInterceptor(ctxCap)
	cliORB.SetBus(plane.Bus)
	srvORB.SetBus(plane.Bus)

	lanes := []rtcorba.LaneConfig{
		{Priority: 0, Threads: 2, QueueLimit: 64, HighWatermark: 48},
		{Priority: sloEscalatedPrio, Threads: 1, QueueLimit: 32, HighWatermark: 24},
	}
	poa, err := srvORB.CreatePOA("app", orb.POAConfig{Model: rtcorba.ClientPropagated, Lanes: lanes})
	if err != nil {
		panic(err)
	}
	servant := orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		req.Thread.Compute(200 * time.Microsecond)
		return make([]byte, 128), nil
	})
	ref, err := poa.Activate("svc", servant)
	if err != nil {
		panic(err)
	}

	r := SLOResult{
		Duration:  dur,
		LoadStart: loadStart,
		LoadEnd:   loadEnd,
		Every:     every,
		TimeIn:    make(map[string]time.Duration),
		Guilty:    make(map[string]int),
		Timeline:  plane.Timeline,
		Sampler:   plane.Sampler,
		Reg:       reg,
		Kept:      kept,
	}

	// The SLO: 99.9% of invocations complete under the latency bound,
	// burn-rate pairs scaled to the scenario horizon. slo_burn records
	// land on the same bus as alert rules and region transitions.
	tracker := slo.NewTracker(sys.K, slo.Objective{
		Name: "invoke", Goal: sloGoal, LatencyBound: sloLatencyBound,
		Pairs: slo.ScaledPairs(dur),
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
	cli.Host.Spawn("client", 50, func(th *rtos.Thread) {
		body := make([]byte, 512)
		for th.Now() < sim.Time(dur) {
			r.Sent++
			start := th.Now()
			_, err := cliORB.InvokeOpt(th, ref, "work", body, orb.InvokeOptions{
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

	// Bulk flood over the best-effort band during the middle third.
	bulkSent := reg.Counter("load.bulk")
	flow := sys.Net.NewFlowID()
	srv.Node.Bind(9999, func(*netsim.Packet) {})
	var blast func()
	blast = func() {
		now := sys.K.Now()
		if now >= sim.Time(loadEnd) {
			return
		}
		if now >= sim.Time(loadStart) {
			bulkSent.Inc()
			r.BulkOffer++
			loadm.Node.Send(netsim.Packet{
				Src:  loadm.Node.Addr(9998),
				Dst:  srv.Node.Addr(9999),
				Size: 1500,
				Flow: flow,
			})
		}
		sys.K.After(1250*time.Microsecond, blast)
	}
	sys.K.Soon(blast)

	plane.Start()
	tracker.Start(100 * time.Millisecond)
	contract.Start(sys.K)
	sys.RunUntil(sim.Time(dur + 250*time.Millisecond))
	contract.Stop()
	tracker.Stop()
	plane.Stop()
	tr.FlushOpen()
	smp.FlushOpen()

	r.Unreconciled = reconcile(plane.Timeline, poa, len(lanes), cliORB)
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
