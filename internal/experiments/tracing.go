package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/avstreams"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/quo"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
	"repro/internal/video"
)

// The trace experiment runs two deterministic scenarios with tracing on
// every layer and decomposes an exemplar trace of each into per-layer
// latency shares. The prio scenario is the paper's Figure 2 three-host
// priority propagation path (client -> middle -> server, nested
// invocation); the video scenario is a Figure 3 pipeline (sender ->
// distributor -> two receivers with different QoS) with a QuO contract
// watching delivery.
const (
	traceCalls  = 5  // invocations in the prio scenario
	traceFrames = 12 // frames streamed in the video scenario
)

// TraceResult is the outcome of both traced scenarios: each one's
// collector and telemetry, and the exemplar traces they report in full
// (0 if the run produced none).
type TraceResult struct {
	prio, video       *trace.Collector
	prioReg, videoReg *telemetry.Registry
	prioTrace         trace.TraceID
	frame, contract   trace.TraceID
}

// traceExemplar is one exemplar trace and the collector holding it.
type traceExemplar struct {
	scenario string
	col      *trace.Collector
	id       trace.TraceID
}

// exemplars lists the exemplar traces the run produced.
func (r TraceResult) exemplars() []traceExemplar {
	var out []traceExemplar
	for _, e := range []traceExemplar{{"prio", r.prio, r.prioTrace}, {"video/frame", r.video, r.frame}, {"video/contract", r.video, r.contract}} {
		if e.id != 0 {
			out = append(out, e)
		}
	}
	return out
}

// RunTrace traces both scenarios. When sink is non-nil it also receives
// every span of the run.
func RunTrace(opt Options, sink *trace.JSONL) TraceResult {
	var r TraceResult
	tracePrio(opt, sink, &r)
	traceVideo(opt, sink, &r)
	return r
}

// newScenarioTracer returns a tracer on sys's kernel and network, also
// feeding sink when it is set.
func newScenarioTracer(sys *core.System, sink *trace.JSONL) *trace.Tracer {
	tr := trace.NewTracer(sys.K)
	if sink != nil {
		tr.AddSink(sink)
	}
	sys.Net.SetTracer(tr)
	return tr
}

// tracePrio traces the Figure 2 priority-propagation path: a client on
// QNX invokes a middle tier on LynxOS which invokes a back end on
// Solaris, all at CORBA priority 100 over DiffServ EF.
func tracePrio(opt Options, sink *trace.JSONL, r *TraceResult) {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	client := sys.AddMachine("client", rtos.HostConfig{Priorities: rtos.RangeQNX})
	middle := sys.AddMachine("middle", rtos.HostConfig{Priorities: rtos.RangeLynxOS})
	server := sys.AddMachine("server", rtos.HostConfig{Priorities: rtos.RangeSolaris})
	sys.AddRouter("router")
	link := core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond, Profile: core.ProfileDiffServ}
	sys.Link("client", "router", link)
	sys.Link("middle", "router", link)
	sys.Link("server", "router", link)

	tr := newScenarioTracer(sys, sink)
	reg := telemetry.NewRegistry()
	r.prioReg = reg

	ef := rtcorba.BandedDSCPMapping{Bands: []rtcorba.DSCPBand{{From: 0, DSCP: netsim.DSCPEF}}}
	cliORB := client.ORB(orb.Config{NetMapping: ef})
	midORB := middle.ORB(orb.Config{NetMapping: ef})
	srvORB := server.ORB(orb.Config{})
	for _, o := range []*orb.ORB{cliORB, midORB, srvORB} {
		o.EnableTracing(tr)
	}
	cliORB.AddClientInterceptor(&orb.TelemetryProbe{Reg: reg})
	midORB.AddClientInterceptor(&orb.TelemetryProbe{Reg: reg})

	cliORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 16}}})
	midORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 128}}})
	srvORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 136}}})

	srvPOA, err := srvORB.CreatePOA("app", orb.POAConfig{Model: rtcorba.ClientPropagated})
	must(err)
	srvRef, err := srvPOA.Activate("backend", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		req.Thread.Compute(300 * time.Microsecond) // image-processing stand-in
		return make([]byte, 1024), nil
	}))
	must(err)

	midPOA, err := midORB.CreatePOA("app", orb.POAConfig{Model: rtcorba.ClientPropagated})
	must(err)
	midRef, err := midPOA.Activate("relay", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		req.Thread.Compute(100 * time.Microsecond)
		return midORB.InvokeOpt(req.Thread, srvRef, "work", req.Body,
			orb.InvokeOptions{Priority: req.Priority})
	}))
	must(err)

	client.Host.Spawn("client", 1, func(t *rtos.Thread) {
		must(cliORB.Current(t).SetPriority(100))
		body := make([]byte, 512)
		for i := 0; i < traceCalls; i++ {
			_, err := cliORB.Invoke(t, midRef, "work", body)
			must(err)
			t.Sleep(10 * time.Millisecond)
		}
	})
	sys.RunUntil(time.Second)
	tr.FlushOpen()

	r.prio = tr.Collector()
	// The last trace shows the steady state: connections on both hops
	// are warm, so no setup cost pollutes the exemplar.
	if ids := r.prio.TraceIDs(); len(ids) > 0 {
		r.prioTrace = ids[len(ids)-1]
	}
}

// traceVideo traces one Figure 3 pipeline: a sender streams MPEG frames
// to a distributor that relays every frame to a display receiver at
// full rate and to an ATR receiver thinned to I-frames only, while a
// QuO contract watches delivered rate.
func traceVideo(opt Options, sink *trace.JSONL, r *TraceResult) {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	uav := sys.AddMachine("uav", rtos.HostConfig{Hz: 750e6})
	dist := sys.AddMachine("distributor", rtos.HostConfig{Hz: 1e9})
	station := sys.AddMachine("station", rtos.HostConfig{Hz: 1e9})
	atr := sys.AddMachine("atr", rtos.HostConfig{Hz: 1e9})
	sys.Link("uav", "distributor", core.LinkSpec{Bps: 20e6, Delay: 5 * time.Millisecond})
	sys.Link("distributor", "station", core.LinkSpec{Bps: 10e6, Delay: time.Millisecond})
	sys.Link("distributor", "atr", core.LinkSpec{Bps: 2e6, Delay: 2 * time.Millisecond})

	tr := newScenarioTracer(sys, sink)
	reg := telemetry.NewRegistry()
	r.videoReg = reg
	for _, m := range []*core.Machine{uav, dist, station, atr} {
		m.AV().SetTracer(tr)
	}

	stationRecv := station.AV().CreateReceiver(5000, 50, nil)
	atrRecv := atr.AV().CreateReceiver(5000, 50, nil)

	d := dist.AV().NewDistributor(5001, 60)
	dist.Host.Spawn("binder", 60, func(t *rtos.Thread) {
		_, err := d.AddBranch(t.Proc(), 5002, stationRecv.Addr(), avstreams.QoS{DSCP: netsim.DSCPEF})
		must(err)
		atrSt, err := d.AddBranch(t.Proc(), 5003, atrRecv.Addr(), avstreams.QoS{})
		must(err)
		atrSt.SetFilter(video.FilterIOnly)
	})

	// A QuO contract watches the station's delivered rate; its span
	// records every evaluation so the trace shows the adaptive layer
	// working alongside the data path.
	var lastCount int64
	fps := quo.NewFuncCond("station-fps", func() float64 {
		got := stationRecv.Stats.ReceivedTotal
		rate := float64(got-lastCount) * 10 // 100ms window
		lastCount = got
		return rate
	})
	contract := quo.NewContract("video-quality", 100*time.Millisecond).
		AddCondition(fps).
		AddRegion(quo.Region{Name: "normal", When: func(v quo.Values) bool { return v["station-fps"] >= 15 }}).
		AddRegion(quo.Region{Name: "degraded"}).
		AttachTracer(tr).
		Instrument(reg)

	sender := uav.AV().CreateSender(5004)
	dur := traceFrames * video.FrameInterval
	uav.Host.Spawn("camera", 40, func(t *rtos.Thread) {
		st, err := sender.Bind(t.Proc(), d.InAddr(), avstreams.QoS{DSCP: netsim.DSCPEF})
		must(err)
		contract.Start(sys.K)
		st.RunSource(t, video.NewGenerator(), dur)
	})
	sys.RunUntil(dur + 500*time.Millisecond)
	contract.Stop()
	tr.FlushOpen()

	// Exemplars: the first frame trace, and the contract's own trace.
	r.video = tr.Collector()
	for _, id := range r.video.TraceIDs() {
		root := r.video.Root(id)
		if root == nil {
			continue
		}
		if r.frame == 0 && strings.HasPrefix(root.Name, "frame") {
			r.frame = id
		}
		if r.contract == 0 && strings.HasPrefix(root.Name, "contract") {
			r.contract = id
		}
	}
}

// Render prints, per scenario, the span tree of the exemplar trace, its
// per-layer critical-path breakdown and the RED-metric telemetry.
func (r TraceResult) Render() string {
	var b strings.Builder
	if id := r.prioTrace; id != 0 {
		col := r.prio
		fmt.Fprintf(&b, "== scenario prio: client -> middle -> server at CORBA priority 100 (%d invocations, %d traces, %d spans) ==\n\n",
			traceCalls, len(col.TraceIDs()), col.Len())
		b.WriteString(col.RenderTree(id))
		b.WriteString("\n")
		renderBreakdown(&b, col, id)
		b.WriteString("\n")
		b.WriteString(r.prioReg.Render())
	}
	b.WriteString("\n")

	col := r.video
	fmt.Fprintf(&b, "== scenario video: uav -> distributor -> {station, atr} (%d frames sent, %d traces, %d spans) ==\n\n",
		traceFrames, len(col.TraceIDs()), col.Len())
	if id := r.frame; id != 0 {
		b.WriteString(col.RenderTree(id))
		seen := make(map[string]bool)
		var layers []string
		for _, s := range col.Trace(id) {
			if !seen[s.Layer] {
				seen[s.Layer] = true
				layers = append(layers, s.Layer)
			}
		}
		sort.Strings(layers)
		fmt.Fprintf(&b, "\none trace ID spans sender -> distributor -> receivers: %d spans across layers %s\n",
			len(col.Trace(id)), strings.Join(layers, ", "))
		b.WriteString("\n")
		renderBreakdown(&b, col, id)
	}
	if id := r.contract; id != 0 {
		b.WriteString("\n")
		b.WriteString(col.RenderTree(id))
	}
	b.WriteString("\n")
	b.WriteString(r.videoReg.Render())
	return b.String()
}

// layerSum returns the sum of a trace's per-layer critical-path shares,
// its end-to-end latency and their difference in percent of the latter.
func layerSum(col *trace.Collector, id trace.TraceID) (sum, total time.Duration, delta float64) {
	shares, total := col.Breakdown(id)
	for _, sh := range shares {
		sum += sh.Time
	}
	if total > 0 {
		delta = 100 * (sum - total).Seconds() / total.Seconds()
		if delta < 0 {
			delta = -delta
		}
	}
	return sum, total, delta
}

// renderBreakdown renders the critical-path per-layer decomposition of
// one trace and how far the shares' sum is from the end-to-end latency.
func renderBreakdown(b *strings.Builder, col *trace.Collector, id trace.TraceID) {
	shares, total := col.Breakdown(id)
	if total == 0 {
		fmt.Fprintf(b, "trace %d: root span still open, no breakdown\n", id)
		return
	}
	tb := metrics.NewTable(fmt.Sprintf("Critical-path latency breakdown (trace %d)", id),
		"Layer", "Time", "Share")
	for _, sh := range shares {
		tb.AddRow(sh.Layer, sh.Time.String(),
			fmt.Sprintf("%.1f%%", 100*sh.Time.Seconds()/total.Seconds()))
	}
	b.WriteString(tb.Render())
	sum, _, delta := layerSum(col, id)
	fmt.Fprintf(b, "layer sum = %v, end-to-end = %v, delta = %.3f%% (within 1%%: %v)\n",
		sum, total, delta, delta <= 1.0)
}

// Checks states, for every exemplar trace, that its per-layer shares sum
// to its end-to-end latency within 1 %.
func (r TraceResult) Checks() []metrics.Check {
	var checks []metrics.Check
	for _, e := range r.exemplars() {
		sum, total, delta := layerSum(e.col, e.id)
		checks = append(checks, metrics.Check{Experiment: "Trace " + e.scenario,
			Claim:  "per-layer shares sum to the end-to-end latency within 1%",
			OK:     total > 0 && delta <= 1.0,
			Detail: fmt.Sprintf("%v of %v (delta %.3f%%)", sum, total, delta)})
	}
	return checks
}

// segmentJSON is one hop of a trace's critical path in the JSON
// document.
type segmentJSON struct {
	Span     uint64 `json:"span"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Duration int64  `json:"duration_ns"`
}

// shareJSON is one layer's share of a latency decomposition.
type shareJSON struct {
	Layer string `json:"layer"`
	Ns    int64  `json:"ns"`
}

// traceDoc is the JSON form of one exemplar trace: every span, the
// blocking chain, and both per-layer decompositions.
type traceDoc struct {
	Scenario           string           `json:"scenario"`
	Trace              uint64           `json:"trace"`
	TotalNs            int64            `json:"total_ns"`
	GuiltyLayer        string           `json:"guilty_layer,omitempty"`
	Spans              []trace.SpanJSON `json:"spans"`
	CriticalPath       []segmentJSON    `json:"critical_path"`
	Breakdown          []shareJSON      `json:"breakdown"`
	CriticalPathShares []shareJSON      `json:"critical_path_shares"`
}

// JSON returns one indented document holding, per exemplar trace, the
// full span list, the critical path, and both latency decompositions
// (exclusive-time and critical-path shares) with the guilty layer.
func (r TraceResult) JSON() ([]byte, error) {
	var docs []traceDoc
	for _, e := range r.exemplars() {
		docs = append(docs, buildTraceDoc(e.scenario, e.col, e.id))
	}
	data, err := json.MarshalIndent(map[string][]traceDoc{"traces": docs}, "", "  ")
	return append(data, '\n'), err
}

// buildTraceDoc assembles the JSON document for one trace.
func buildTraceDoc(scenario string, col *trace.Collector, id trace.TraceID) traceDoc {
	doc := traceDoc{Scenario: scenario, Trace: uint64(id), GuiltyLayer: col.GuiltyLayer(id)}
	for _, s := range col.Trace(id) {
		doc.Spans = append(doc.Spans, trace.SpanToJSON(s))
	}
	for _, seg := range col.CriticalPath(id) {
		doc.CriticalPath = append(doc.CriticalPath, segmentJSON{
			Span:     uint64(seg.Span.ID),
			Name:     seg.Span.Name,
			Layer:    seg.Span.Layer,
			StartNs:  int64(seg.Start),
			EndNs:    int64(seg.End),
			Duration: int64(seg.Duration()),
		})
	}
	shares, total := col.Breakdown(id)
	doc.TotalNs = int64(total)
	for _, sh := range shares {
		doc.Breakdown = append(doc.Breakdown, shareJSON{Layer: sh.Layer, Ns: int64(sh.Time)})
	}
	cshares, _ := col.CriticalPathShares(id)
	for _, sh := range cshares {
		doc.CriticalPathShares = append(doc.CriticalPathShares, shareJSON{Layer: sh.Layer, Ns: int64(sh.Time)})
	}
	return doc
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
