// Command qostrace demonstrates the end-to-end invocation tracing and
// telemetry built into the middleware stack: it runs a deterministic
// scenario with tracing enabled on every layer, then prints the span
// tree of a representative trace, the per-layer critical-path breakdown
// of its end-to-end latency (the shares sum exactly to the observed
// RTT), and the RED-metric telemetry tables.
//
// Usage:
//
//	qostrace [-scenario prio|video|all] [-calls N] [-frames N]
//	         [-jsonl FILE] [-json] [-seed N]
//
// -json replaces the human-readable report with one JSON document on
// stdout: per exemplar trace, the full span list, the critical path,
// and both latency decompositions (exclusive-time and critical-path
// shares) with the guilty layer. -jsonl independently streams every
// span of the run to a file as JSON lines.
//
// The prio scenario is the paper's Figure 2 three-host priority
// propagation path (client -> middle -> server, nested invocation); the
// video scenario is a Figure 3 pipeline (sender -> distributor -> two
// receivers with different QoS) with a QuO contract watching delivery.
// Both are deterministic: repeated runs produce byte-identical output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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

type options struct {
	scenario string
	calls    int
	frames   int
	json     bool
	seed     int64
	jsonl    *trace.JSONL // every span as JSON lines, when set
}

// errUnknownScenario makes main exit 2.
var errUnknownScenario = errors.New("unknown scenario")

// run traces the chosen scenarios and writes the report, or with
// opt.json one JSON document, to w.
func run(w io.Writer, opt options) error {
	if opt.scenario != "prio" && opt.scenario != "video" && opt.scenario != "all" {
		return fmt.Errorf("%w %q", errUnknownScenario, opt.scenario)
	}
	var docs []traceDoc
	if opt.scenario != "video" {
		docs = append(docs, runPrio(w, opt)...)
	}
	if opt.scenario != "prio" {
		if opt.scenario == "all" && !opt.json {
			fmt.Fprintln(w)
		}
		docs = append(docs, runVideo(w, opt)...)
	}
	if opt.json {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string][]traceDoc{"traces": docs}); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if opt.jsonl != nil && opt.jsonl.Err() != nil {
		return fmt.Errorf("jsonl export: %w", opt.jsonl.Err())
	}
	return nil
}

func main() {
	var opt options
	flag.StringVar(&opt.scenario, "scenario", "prio", "scenario to trace: prio, video, all")
	flag.IntVar(&opt.calls, "calls", 5, "invocations to issue in the prio scenario")
	flag.IntVar(&opt.frames, "frames", 12, "frames to stream in the video scenario")
	jsonl := flag.String("jsonl", "", "write every span as JSON lines to this file")
	flag.BoolVar(&opt.json, "json", false, "emit the exemplar traces as one JSON document instead of the report")
	flag.Int64Var(&opt.seed, "seed", 3, "simulation seed")
	flag.Parse()

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qostrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		opt.jsonl = trace.NewJSONL(f)
	}
	if err := run(os.Stdout, opt); err != nil {
		fmt.Fprintln(os.Stderr, "qostrace:", err)
		if errors.Is(err, errUnknownScenario) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// segmentJSON is one hop of a trace's critical path in the -json output.
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

// traceDoc is the -json form of one exemplar trace: every span, the
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

// buildDoc assembles the JSON document for one trace.
func buildDoc(scenario string, col *trace.Collector, id trace.TraceID) traceDoc {
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

// runPrio traces the Figure 2 priority-propagation path: a client on
// QNX invokes a middle tier on LynxOS which invokes a back end on
// Solaris, all at CORBA priority 100 over DiffServ EF.
func runPrio(w io.Writer, opt options) []traceDoc {
	sys := core.NewSystem(opt.seed)
	defer sys.Close()
	client := sys.AddMachine("client", rtos.HostConfig{Priorities: rtos.RangeQNX})
	middle := sys.AddMachine("middle", rtos.HostConfig{Priorities: rtos.RangeLynxOS})
	server := sys.AddMachine("server", rtos.HostConfig{Priorities: rtos.RangeSolaris})
	sys.AddRouter("router")
	link := core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond, Profile: core.ProfileDiffServ}
	sys.Link("client", "router", link)
	sys.Link("middle", "router", link)
	sys.Link("server", "router", link)

	tr := trace.NewTracer(sys.K)
	if opt.jsonl != nil {
		tr.AddSink(opt.jsonl)
	}
	sys.Net.SetTracer(tr)
	reg := telemetry.NewRegistry()

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
	check(err)
	srvRef, err := srvPOA.Activate("backend", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		req.Thread.Compute(300 * time.Microsecond) // image-processing stand-in
		return make([]byte, 1024), nil
	}))
	check(err)

	midPOA, err := midORB.CreatePOA("app", orb.POAConfig{Model: rtcorba.ClientPropagated})
	check(err)
	midRef, err := midPOA.Activate("relay", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		req.Thread.Compute(100 * time.Microsecond)
		return midORB.InvokeOpt(req.Thread, srvRef, "work", req.Body,
			orb.InvokeOptions{Priority: req.Priority})
	}))
	check(err)

	client.Host.Spawn("client", 1, func(t *rtos.Thread) {
		check(cliORB.Current(t).SetPriority(100))
		body := make([]byte, 512)
		for i := 0; i < opt.calls; i++ {
			if _, err := cliORB.Invoke(t, midRef, "work", body); err != nil {
				panic(err)
			}
			t.Sleep(10 * time.Millisecond)
		}
	})
	sys.RunUntil(time.Second)
	tr.FlushOpen()

	col := tr.Collector()
	ids := col.TraceIDs()
	if len(ids) == 0 {
		return nil
	}
	// The last trace shows the steady state: connections on both hops
	// are warm, so no setup cost pollutes the exemplar.
	exemplar := ids[len(ids)-1]
	if opt.json {
		return []traceDoc{buildDoc("prio", col, exemplar)}
	}
	fmt.Fprintf(w, "== scenario prio: client -> middle -> server at CORBA priority 100 (%d invocations, %d traces, %d spans) ==\n\n",
		opt.calls, len(ids), col.Len())
	fmt.Fprint(w, col.RenderTree(exemplar))
	fmt.Fprintln(w)
	printBreakdown(w, col, exemplar)
	fmt.Fprintln(w)
	fmt.Fprint(w, reg.Render())
	return nil
}

// runVideo traces one Figure 3 pipeline: a sender streams MPEG frames
// to a distributor that relays every frame to a display receiver at
// full rate and to an ATR receiver thinned to I-frames only, while a
// QuO contract watches delivered rate.
func runVideo(w io.Writer, opt options) []traceDoc {
	sys := core.NewSystem(opt.seed)
	defer sys.Close()
	uav := sys.AddMachine("uav", rtos.HostConfig{Hz: 750e6})
	dist := sys.AddMachine("distributor", rtos.HostConfig{Hz: 1e9})
	station := sys.AddMachine("station", rtos.HostConfig{Hz: 1e9})
	atr := sys.AddMachine("atr", rtos.HostConfig{Hz: 1e9})
	sys.Link("uav", "distributor", core.LinkSpec{Bps: 20e6, Delay: 5 * time.Millisecond})
	sys.Link("distributor", "station", core.LinkSpec{Bps: 10e6, Delay: time.Millisecond})
	sys.Link("distributor", "atr", core.LinkSpec{Bps: 2e6, Delay: 2 * time.Millisecond})

	tr := trace.NewTracer(sys.K)
	if opt.jsonl != nil {
		tr.AddSink(opt.jsonl)
	}
	sys.Net.SetTracer(tr)
	reg := telemetry.NewRegistry()
	for _, m := range []*core.Machine{uav, dist, station, atr} {
		m.AV().SetTracer(tr)
	}

	stationRecv := station.AV().CreateReceiver(5000, 50, nil)
	atrRecv := atr.AV().CreateReceiver(5000, 50, nil)

	d := dist.AV().NewDistributor(5001, 60)
	dist.Host.Spawn("binder", 60, func(t *rtos.Thread) {
		st, err := d.AddBranch(t.Proc(), 5002, stationRecv.Addr(), avstreams.QoS{DSCP: netsim.DSCPEF})
		check(err)
		_ = st
		atrSt, err := d.AddBranch(t.Proc(), 5003, atrRecv.Addr(), avstreams.QoS{})
		check(err)
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
	dur := time.Duration(opt.frames) * video.FrameInterval
	uav.Host.Spawn("camera", 40, func(t *rtos.Thread) {
		st, err := sender.Bind(t.Proc(), d.InAddr(), avstreams.QoS{DSCP: netsim.DSCPEF})
		check(err)
		contract.Start(sys.K)
		st.RunSource(t, video.NewGenerator(), dur)
	})
	sys.RunUntil(dur + 500*time.Millisecond)
	contract.Stop()
	tr.FlushOpen()

	col := tr.Collector()
	ids := col.TraceIDs()

	// Exemplar: the first frame trace (the contract owns its own trace).
	var frameTrace, contractTrace trace.TraceID
	for _, id := range ids {
		root := col.Root(id)
		if root == nil {
			continue
		}
		if frameTrace == 0 && strings.HasPrefix(root.Name, "frame") {
			frameTrace = id
		}
		if contractTrace == 0 && strings.HasPrefix(root.Name, "contract") {
			contractTrace = id
		}
	}
	if opt.json {
		var docs []traceDoc
		if frameTrace != 0 {
			docs = append(docs, buildDoc("video/frame", col, frameTrace))
		}
		if contractTrace != 0 {
			docs = append(docs, buildDoc("video/contract", col, contractTrace))
		}
		return docs
	}
	fmt.Fprintf(w, "== scenario video: uav -> distributor -> {station, atr} (%d frames sent, %d traces, %d spans) ==\n\n",
		opt.frames, len(ids), col.Len())
	if frameTrace != 0 {
		fmt.Fprint(w, col.RenderTree(frameTrace))
		seen := make(map[string]bool)
		var layers []string
		for _, s := range col.Trace(frameTrace) {
			if !seen[s.Layer] {
				seen[s.Layer] = true
				layers = append(layers, s.Layer)
			}
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "\none trace ID spans sender -> distributor -> receivers: %d spans across layers %s\n",
			len(col.Trace(frameTrace)), strings.Join(layers, ", "))
		fmt.Fprintln(w)
		printBreakdown(w, col, frameTrace)
	}
	if contractTrace != 0 {
		fmt.Fprintln(w)
		fmt.Fprint(w, col.RenderTree(contractTrace))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, reg.Render())
	return nil
}

// printBreakdown renders the critical-path per-layer decomposition of
// one trace and verifies the shares sum to the end-to-end latency.
func printBreakdown(w io.Writer, col *trace.Collector, id trace.TraceID) {
	shares, total := col.Breakdown(id)
	if total == 0 {
		fmt.Fprintf(w, "trace %d: root span still open, no breakdown\n", id)
		return
	}
	tb := metrics.NewTable(fmt.Sprintf("Critical-path latency breakdown (trace %d)", id),
		"Layer", "Time", "Share")
	var sum time.Duration
	for _, sh := range shares {
		sum += sh.Time
		tb.AddRow(sh.Layer, sh.Time.String(),
			fmt.Sprintf("%.1f%%", 100*sh.Time.Seconds()/total.Seconds()))
	}
	fmt.Fprint(w, tb.Render())
	delta := 100 * (sum - total).Seconds() / total.Seconds()
	if delta < 0 {
		delta = -delta
	}
	fmt.Fprintf(w, "layer sum = %v, end-to-end = %v, delta = %.3f%% (within 1%%: %v)\n",
		sum, total, delta, delta <= 1.0)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
