package experiments

import (
	"errors"
	"fmt"
	"strings"
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
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// The monitor experiment closes the paper's observe-decide-act loop
// through the monitoring plane itself: nothing hand-sets a system
// condition. A client invokes a server across a shared DiffServ link
// while a bulk flood congests the best-effort band in the middle third
// of the run. The application only records round-trip times into a
// telemetry histogram; the monitoring sampler turns that histogram (and
// the flood's send counter) into time series; QuO system conditions
// read the sampled series; and the contract's region transitions drive
// a qosket that escalates the client's CORBA priority into the
// expedited-forwarding band until the measured flood subsides.
//
// Expected region trajectory (all transitions measurement-driven):
//
//	"" -> normal            first evaluation, link idle
//	normal -> degraded      sampled rtt p95 crosses the threshold
//	degraded -> protected   escalation restored latency; sampled bulk
//	                        rate still shows the flood
//	protected -> normal     flood ends; qosket de-escalates
const (
	// monitorEscalatedPrio is the CORBA priority the qosket escalates
	// to: mapped to DSCP EF on the wire and the server's high lane.
	monitorEscalatedPrio rtcorba.Priority = 100
	// monitorRTTThreshold is the degraded-region bound on the sampled
	// client rtt p95, in milliseconds.
	monitorRTTThreshold = 30.0
	// monitorFloodThreshold is the protected-region bound on the
	// sampled bulk send rate, in messages per second. The flood offers
	// ~200/s (the sender self-clocks against transport backpressure);
	// nominal traffic offers none.
	monitorFloodThreshold = 100.0
)

// traceCtxCapture is a client interceptor remembering the trace context
// of the most recent completed invocation, so application-level metric
// observations can be stamped with it as exemplars.
type traceCtxCapture struct{ last trace.SpanContext }

func (c *traceCtxCapture) SendRequest(*orb.ClientRequestInfo) {}

func (c *traceCtxCapture) ReceiveReply(info *orb.ClientRequestInfo) {
	if info.Err == nil && info.TraceCtx.Valid() {
		c.last = info.TraceCtx
	}
}

// MonitorResult is the measured outcome of the monitoring scenario.
type MonitorResult struct {
	Duration           time.Duration
	LoadStart, LoadEnd time.Duration
	Every              time.Duration

	// Client traffic outcome.
	Sent, OK   int
	Deadline   int
	Failed     int
	BulkOffer  int64
	Escalate   int
	Deescalate int

	// RTT is the sampled per-window client round-trip series (ms).
	RTT *monitor.Series
	// Regions is the contract's region timeline.
	Regions []quo.RegionSpan
	// TimeIn sums virtual time per region.
	TimeIn map[string]time.Duration
	// Transitions counts contract region changes.
	Transitions int64

	// Breakdown is the per-layer critical-path decomposition of the
	// exemplar trace (a successful steady-state invocation), and
	// BreakdownTotal its end-to-end latency.
	Breakdown      []trace.LayerShare
	BreakdownTotal sim.Time
	ExemplarTrace  trace.TraceID

	// Plane-level artifacts for rendering and assertions.
	Timeline *events.Timeline
	Sampler  *monitor.Sampler
	Reg      *telemetry.Registry
	// Unreconciled lists every counter the timeline's records disagree
	// with (see reconcile); empty when they agree.
	Unreconciled []string
}

// reconcile checks the sim plane's bus records against the counters of
// the layers that published them: the KindShed records from the server
// POA's pool ("pool/srv/app") against the discards in its lanes, and the
// KindBreaker records from the client ORB ("orb@cli") against its
// transition log. It returns one line per disagreement.
func reconcile(tl *events.Timeline, poa *orb.POA, lanes int, cli *orb.ORB) []string {
	var sheds, trips int
	for _, r := range tl.Records() {
		switch {
		case r.Kind == events.KindShed && r.Source == "pool/srv/app":
			sheds++
		case r.Kind == events.KindBreaker && r.Source == "orb@cli":
			trips++
		}
	}
	var discarded int64
	for i := 0; i < lanes; i++ {
		st := poa.Pool().Stats(i)
		discarded += st.Refused + st.Evicted + st.Deadline
	}
	var out []string
	if int64(sheds) != discarded {
		out = append(out, fmt.Sprintf("%d KindShed records from pool/srv/app, its lanes discarded %d", sheds, discarded))
	}
	if n := len(cli.BreakerTransitions()); trips != n {
		out = append(out, fmt.Sprintf("%d KindBreaker records from orb@cli, its log holds %d transitions", trips, n))
	}
	return out
}

// RunMonitor executes the scenario. Duration defaults to 12s with the
// flood in the middle third; the sampler and contract tick every 250ms.
func RunMonitor(opt Options) MonitorResult {
	dur := opt.duration(12 * time.Second)
	loadStart, loadEnd := dur/3, 2*dur/3
	const every = 250 * time.Millisecond

	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	loadm := sys.AddMachine("load", rtos.HostConfig{})
	srv := sys.AddMachine("srv", rtos.HostConfig{})
	rtr := sys.AddRouter("rtr")
	// Hand-built links: an EF band over a plain FIFO best-effort class.
	// The stock DiffServ profile fair-queues best effort per flow, which
	// would isolate the client from the flood; here best-effort traffic
	// shares one FIFO, so congestion hits everyone not in the EF band —
	// the situation the monitoring loop must detect and escape.
	link := func(a, b *netsim.Node, bps float64) {
		sys.Net.ConnectSym(a, b, netsim.LinkConfig{
			Bps:   bps,
			Delay: time.Millisecond,
			Queue: netsim.NewDiffServ(32*1024, netsim.NewFIFO(64*1024)),
		})
	}
	link(cli.Node, rtr, 10e6)
	link(loadm.Node, rtr, 10e6)
	// The server's access link is the bottleneck: the flood self-clocks
	// against its own 10 Mb/s access link, overflowing the 8 Mb/s
	// best-effort queue here — tail drops, rising delay, the works.
	link(rtr, srv.Node, 8e6)

	tr := trace.NewTracer(sys.K)
	sys.Net.SetTracer(tr)
	reg := telemetry.NewRegistry()
	plane := monitor.NewPlane(sys.K, reg, every)
	sys.Net.SetBus(plane.Bus)
	plane.WireTracer(tr)

	// The client's priorities map onto the wire: best effort below the
	// escalation band, EF at and above it.
	cliORB := cli.ORB(orb.Config{NetMapping: rtcorba.BandedDSCPMapping{
		Bands: []rtcorba.DSCPBand{{From: monitorEscalatedPrio, DSCP: netsim.DSCPEF}},
	}})
	srvORB := srv.ORB(orb.Config{})
	cliORB.EnableTracing(tr)
	srvORB.EnableTracing(tr)
	cliORB.AddClientInterceptor(&orb.TelemetryProbe{Reg: reg})
	// Capture each invocation's trace context so the application's own
	// rtt histogram can stamp observations with exemplars: every window
	// of the dashboard series then names a concrete causal trace.
	ctxCap := &traceCtxCapture{}
	cliORB.AddClientInterceptor(ctxCap)
	// Breaker transitions from the client, lane sheds from the server's
	// POA pool ("pool/srv/app").
	cliORB.SetBus(plane.Bus)
	srvORB.SetBus(plane.Bus)

	lanes := []rtcorba.LaneConfig{
		{Priority: 0, Threads: 2, QueueLimit: 64, HighWatermark: 48},
		{Priority: monitorEscalatedPrio, Threads: 1, QueueLimit: 32, HighWatermark: 24},
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
	r := MonitorResult{
		Duration:  dur,
		LoadStart: loadStart,
		LoadEnd:   loadEnd,
		Every:     every,
		TimeIn:    make(map[string]time.Duration),
		Timeline:  plane.Timeline,
		Sampler:   plane.Sampler,
		Reg:       reg,
	}

	// The application's only contribution to monitoring: measured
	// round-trips land in a histogram with stable labels (deliberately
	// not the TelemetryProbe's priority-labelled rtt, which would split
	// the series when the qosket changes priority).
	rtt := reg.Histogram("app.rtt_ms")
	bulkSent := reg.Counter("load.bulk")

	// Closed loop: sampled conditions only.
	rttCond := monitor.HistogramCond("rtt_p95_ms", plane.Sampler, "app.rtt_ms", monitor.StatP95)
	rttCond.Default = 5
	floodCond := monitor.CounterRateCond("bulk_rps", plane.Sampler, "load.bulk")

	curPrio := rtcorba.Priority(0)
	contract := quo.NewContract("qos", every).
		AddCondition(rttCond).
		AddCondition(floodCond).
		AddRegion(quo.Region{Name: "degraded", When: func(v quo.Values) bool {
			return v["rtt_p95_ms"] > monitorRTTThreshold && curPrio == 0
		}}).
		AddRegion(quo.Region{Name: "protected", When: func(v quo.Values) bool {
			return curPrio != 0 && (v["bulk_rps"] > monitorFloodThreshold || v["rtt_p95_ms"] > monitorRTTThreshold)
		}}).
		AddRegion(quo.Region{Name: "normal"}).
		Instrument(reg)
	// The qosket: region changes move the client between the best-effort
	// and expedited bands.
	contract.OnTransition(func(from, to string, _ quo.Values) {
		switch to {
		case "degraded":
			if curPrio == 0 {
				curPrio = monitorEscalatedPrio
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

	// Alert rules over the same sampled series the contract reads.
	plane.Sampler.AddRule(&monitor.Rule{
		Name: "rtt-p95-high", Series: "app.rtt_ms.window",
		Stat: monitor.StatP95, Op: monitor.Above, Threshold: monitorRTTThreshold, For: 2,
	})
	plane.Sampler.AddRule(&monitor.Rule{
		Name: "bulk-flood", Series: "load.bulk",
		Stat: monitor.StatRate, Op: monitor.Above, Threshold: monitorFloodThreshold,
	})

	// Client: steady request stream, RTTs recorded in milliseconds.
	cli.Host.Spawn("client", 50, func(th *rtos.Thread) {
		body := make([]byte, 512)
		for th.Now() < sim.Time(dur) {
			r.Sent++
			start := th.Now()
			_, err := cliORB.InvokeOpt(th, ref, "work", body, orb.InvokeOptions{
				Priority: curPrio,
				Deadline: 250 * time.Millisecond,
			})
			switch {
			case err == nil:
				r.OK++
				rtt.ObserveEx(float64(th.Now()-start)/float64(time.Millisecond), telemetry.Exemplar{
					TraceID: uint64(ctxCap.last.Trace),
					SpanID:  uint64(ctxCap.last.Span),
					At:      time.Duration(th.Now()),
				})
			case errors.Is(err, orb.ErrDeadlineExpired):
				r.Deadline++
			default:
				r.Failed++
			}
			th.Sleep(25 * time.Millisecond)
		}
	})

	// Bulk flood: raw best-effort datagrams (media/sensor-style traffic
	// with no transport backpressure) at 9.6 Mb/s during the middle
	// third — over the server access link's 8 Mb/s, so the best-effort
	// band queues up and tail-drops while the EF band stays clear.
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
	contract.Start(sys.K)
	sys.RunUntil(sim.Time(dur + 250*time.Millisecond))
	contract.Stop()
	plane.Stop()
	tr.FlushOpen()

	r.RTT = plane.Sampler.Series("app.rtt_ms.window")
	r.Unreconciled = reconcile(plane.Timeline, poa, len(lanes), cliORB)
	r.Regions = hist.Spans()
	r.Transitions = contract.Transitions()
	for _, s := range hist.Spans() {
		r.TimeIn[s.Region] += s.DurationAt(sys.K.Now())
	}

	// Exemplar: the last completed error-free client invocation trace —
	// steady state, warm connections, post-recovery path.
	col := tr.Collector()
	for _, id := range col.TraceIDs() {
		root := col.Root(id)
		if root == nil || root.End == 0 || !strings.HasPrefix(root.Name, "invoke ") {
			continue
		}
		clean := true
		for _, a := range root.Attrs {
			if a.Key == "error" {
				clean = false
				break
			}
		}
		if clean {
			r.ExemplarTrace = id
		}
	}
	if r.ExemplarTrace != 0 {
		r.Breakdown, r.BreakdownTotal = col.Breakdown(r.ExemplarTrace)
	}
	return r
}
