package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/video"
)

// CORBA priorities used by the two video sender tasks.
const (
	prioHigh  rtcorba.Priority = 30000
	prioEqual rtcorba.Priority = 15000
	prioLow   rtcorba.Priority = 5000
)

// prioConfig parameterises one Figure 4/5/6 run.
type prioConfig struct {
	name       string
	prio1      rtcorba.Priority
	prio2      rtcorba.Priority
	netMapping rtcorba.NetworkPriorityMapping
	cross      bool
	cpuLoad    bool
	duration   time.Duration
	seed       int64
}

// PrioCaseResult is one run's outcome: per-sender one-way GIOP message
// latency series and summaries.
type PrioCaseResult struct {
	Name       string
	S1, S2     *metrics.Series
	Sum1, Sum2 metrics.Summary
}

// DiffServTopology builds the paper's 4-machine DiffServ testbed
// (Figures 4-6): a sender machine, a DiffServ router, a receiver machine
// and a cross-traffic generator machine. The bottleneck is the 10 Mbps
// router->receiver link; other links run at 100 Mbps, mirroring the
// 10/100 testbed.
func DiffServTopology(seed int64) *core.System {
	sys := core.NewSystem(seed)
	sys.AddMachine("sender", rtos.HostConfig{Hz: 1e9, Quantum: time.Millisecond})
	sys.AddMachine("receiver", rtos.HostConfig{Hz: 1e9, Quantum: time.Millisecond})
	sys.AddMachine("crossgen", rtos.HostConfig{Hz: 1e9})
	sys.AddRouter("router")
	sys.Link("sender", "router", core.LinkSpec{Bps: 100e6, Delay: 100 * time.Microsecond, Profile: core.ProfileDiffServ})
	sys.Link("crossgen", "router", core.LinkSpec{Bps: 100e6, Delay: 100 * time.Microsecond, Profile: core.ProfileDiffServ})
	sys.Link("router", "receiver", core.LinkSpec{Bps: 10e6, Delay: 100 * time.Microsecond, Profile: core.ProfileDiffServ})
	return sys
}

// runPriorityCase runs one Figure 4/5/6 case on the DiffServ testbed:
// the sender machine hosts two video sender tasks, the receiver machine
// two servants in two POAs.
func runPriorityCase(cfg prioConfig) PrioCaseResult {
	sys := DiffServTopology(cfg.seed)
	defer sys.Close()
	sender, receiver, crossgen := sys.Machine("sender"), sys.Machine("receiver"), sys.Machine("crossgen")

	mapping := cfg.netMapping
	if mapping == nil {
		mapping = rtcorba.BestEffortMapping{}
	}
	// The two sender tasks are separate processes on the sender machine,
	// each with its own ORB (and hence its own transport connection).
	cliORB1 := orb.New("sender1", sender.Host, sys.Net, sender.Node, orb.Config{ListenPort: 2809, NetMapping: mapping})
	cliORB2 := orb.New("sender2", sender.Host, sys.Net, sender.Node, orb.Config{ListenPort: 2810, NetMapping: mapping})
	srvORB := receiver.ORB(orb.Config{})

	// Two servants in two separate POAs, as in the paper's setup. Each
	// records the one-way latency of every GIOP message it receives.
	result := PrioCaseResult{
		Name: cfg.name,
		S1:   metrics.NewSeries("sender1"),
		S2:   metrics.NewSeries("sender2"),
	}
	makeServant := func(series *metrics.Series) orb.Servant {
		return orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
			series.AddDuration(req.Now(), time.Duration(req.Now()-req.SentAt))
			return nil, nil
		})
	}
	poa1, err := srvORB.CreatePOA("video1", orb.POAConfig{Model: rtcorba.ClientPropagated})
	if err != nil {
		panic(err)
	}
	poa2, err := srvORB.CreatePOA("video2", orb.POAConfig{Model: rtcorba.ClientPropagated})
	if err != nil {
		panic(err)
	}
	ref1, err := poa1.Activate("sink", makeServant(result.S1))
	if err != nil {
		panic(err)
	}
	ref2, err := poa2.Activate("sink", makeServant(result.S2))
	if err != nil {
		panic(err)
	}

	// Video sender task: a GIOP client pushing ~1.2 Mbps of oneway
	// messages whose sizes follow the MPEG frame model.
	startSender := func(name string, cliORB *orb.ORB, prio rtcorba.Priority, ref *orb.ObjectRef, offset time.Duration) {
		sender.Host.Spawn(name, 1, func(t *rtos.Thread) {
			if err := cliORB.Current(t).SetPriority(prio); err != nil {
				panic(err)
			}
			t.Sleep(offset)
			gen := video.NewGenerator()
			deadline := t.Now() + cfg.duration
			next := t.Now()
			// One body buffer for the whole stream: InvokeOneway copies
			// it into the request frame, so it is free again once the
			// call returns.
			var body []byte
			for t.Now() < deadline {
				f := gen.Next()
				body = frameBody(body, f)
				if err := cliORB.InvokeOneway(t, ref, "frame", body); err != nil {
					return
				}
				next += video.FrameInterval
				if sleep := next - t.Now(); sleep > 0 {
					t.Sleep(sleep)
				}
			}
		})
	}
	// Offset the second sender by half a frame interval so the two
	// streams are not artificially phase-locked on the bottleneck.
	startSender("sender1", cliORB1, cfg.prio1, ref1, 0)
	startSender("sender2", cliORB2, cfg.prio2, ref2, 16700*time.Microsecond)

	if cfg.cross {
		// ~16 Mbps of best-effort cross traffic in 13 flows through the
		// same bottleneck.
		netsim.StartCrossTraffic(sys.Net, crossgen.Node, receiver.Node, 7000, 16e6, 13, netsim.DSCPBestEffort)
	}
	if cfg.cpuLoad {
		// Bursty CPU-intensive processing on the sender host at a native
		// priority between the two sender threads: it preempts the low-
		// priority sender but not the high-priority one. Compute the
		// midpoint in int to avoid int16 overflow.
		mid := rtcorba.Priority((int(cfg.prio1) + int(cfg.prio2)) / 2)
		native, ok := cliORB1.MappingManager().ToNative(mid, sender.Host.Priorities())
		if !ok {
			panic("cpu load priority does not map")
		}
		rtos.StartBurstLoad(sender.Host, "cpuload", native, 20*time.Millisecond, 40*time.Millisecond)
	}

	sys.RunUntil(cfg.duration + 2*time.Second)
	result.Sum1 = result.S1.Summarize()
	result.Sum2 = result.S2.Summarize()
	return result
}

// Figure4Result holds the two control runs.
type Figure4Result struct {
	NoTraffic   PrioCaseResult
	WithTraffic PrioCaseResult
}

// RunFigure4 reproduces the control runs: equal task priorities, no
// network management, with and without contending traffic.
func RunFigure4(opt Options) Figure4Result { return run(figure4(opt)) }

// figure4 lists Figure 4's two cases and assembles their result.
func figure4(opt Options) ([]simCase, func() Figure4Result) {
	base := prioConfig{
		prio1:    prioEqual,
		prio2:    prioEqual,
		duration: opt.duration(30 * time.Second),
		seed:     opt.seed(),
	}
	a := base
	a.name = "fig4a: equal priorities, no congestion"
	b := base
	b.name = "fig4b: equal priorities, with congestion"
	b.cross = true
	var r Figure4Result
	return []simCase{prioCase(a, &r.NoTraffic), prioCase(b, &r.WithTraffic)},
		func() Figure4Result { return r }
}

// Figure5Result holds the thread-priority-only runs.
type Figure5Result struct {
	NoTraffic   PrioCaseResult
	WithTraffic PrioCaseResult
}

// RunFigure5 reproduces the thread-priority-only runs: different thread
// priorities and CPU load, with and without network congestion, no
// network management.
func RunFigure5(opt Options) Figure5Result { return run(figure5(opt)) }

// figure5 lists Figure 5's two cases and assembles their result.
func figure5(opt Options) ([]simCase, func() Figure5Result) {
	base := prioConfig{
		prio1:    prioHigh,
		prio2:    prioLow,
		cpuLoad:  true,
		duration: opt.duration(30 * time.Second),
		seed:     opt.seed(),
	}
	a := base
	a.name = "fig5a: thread priorities + CPU load, no congestion"
	b := base
	b.name = "fig5b: thread priorities + CPU load, with congestion"
	b.cross = true
	var r Figure5Result
	return []simCase{prioCase(a, &r.NoTraffic), prioCase(b, &r.WithTraffic)},
		func() Figure5Result { return r }
}

// Figure6Result holds the combined priority + DiffServ run.
type Figure6Result struct {
	Combined PrioCaseResult
}

// RunFigure6 reproduces the combined run: thread priorities mapped to
// DSCPs (Sender 1 expedited, Sender 2 assured), CPU load, and network
// congestion.
func RunFigure6(opt Options) Figure6Result { return run(figure6(opt)) }

// figure6 lists Figure 6's one case and assembles its result.
func figure6(opt Options) ([]simCase, func() Figure6Result) {
	cfg := prioConfig{
		name:    "fig6: thread priorities + DSCP, CPU load + congestion",
		prio1:   prioHigh,
		prio2:   prioLow,
		cpuLoad: true,
		cross:   true,
		netMapping: rtcorba.BandedDSCPMapping{Bands: []rtcorba.DSCPBand{
			{From: 0, DSCP: netsim.DSCPBestEffort},
			{From: prioLow, DSCP: netsim.DSCPAF41},
			{From: prioHigh, DSCP: netsim.DSCPEF},
		}},
		duration: opt.duration(30 * time.Second),
		seed:     opt.seed(),
	}
	var r Figure6Result
	return []simCase{prioCase(cfg, &r.Combined)}, func() Figure6Result { return r }
}

// prioCase is the case that runs cfg into out.
func prioCase(cfg prioConfig, out *PrioCaseResult) simCase {
	return simCase{cfg.name, func() { *out = runPriorityCase(cfg) }}
}

// summaryRow renders one sender's latency summary.
func summaryRow(tb *metrics.Table, caseName, sender string, s metrics.Summary) {
	tb.AddRow(caseName, sender,
		fmt.Sprintf("%d", s.N),
		metrics.FormatDuration(s.MeanDuration()),
		metrics.FormatDuration(s.StdDuration()),
		metrics.FormatDuration(time.Duration(s.P99*float64(time.Second))),
		metrics.FormatDuration(time.Duration(s.Max*float64(time.Second))),
	)
}

func prioTable(title string, cases ...PrioCaseResult) string {
	tb := metrics.NewTable(title,
		"Case", "Sender", "Msgs", "Mean", "StdDev", "P99", "Max")
	for _, c := range cases {
		summaryRow(tb, c.Name, "sender1", c.Sum1)
		summaryRow(tb, c.Name, "sender2", c.Sum2)
	}
	return tb.Render()
}

// Render prints the Figure 4 summaries.
func (r Figure4Result) Render() string {
	return prioTable("Figure 4 — control runs (GIOP one-way latency)",
		r.NoTraffic, r.WithTraffic)
}

// Render prints the Figure 5 summaries.
func (r Figure5Result) Render() string {
	return prioTable("Figure 5 — thread priorities alone (GIOP one-way latency)",
		r.NoTraffic, r.WithTraffic)
}

// Render prints the Figure 6 summary.
func (r Figure6Result) Render() string {
	return prioTable("Figure 6 — thread priorities + DiffServ (GIOP one-way latency)",
		r.Combined)
}

// RenderSeries prints a latency time series as "t_seconds latency_ms"
// lines, the figure's raw data.
func RenderSeries(s *metrics.Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: t(s) latency(ms)\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%.3f %.3f\n", p.T.Seconds(), p.V*1e3)
	}
	return b.String()
}

// frameDescSize is the CDR size of a frame descriptor: sequence number,
// type and size.
const frameDescSize = 8 + 4 + 4

// frameBody lays out a frame's request body in buf's memory, growing it
// if need be: the CDR frame descriptor ahead of the opaque payload,
// padded with zeros to the frame's encoded size. Only the descriptor's
// bytes are ever written, so the padding stays zero from the allocation.
func frameBody(buf []byte, f video.Frame) []byte {
	n := frameDescSize + f.Size
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	e := cdr.AppendEncoder(buf[:0], cdr.LittleEndian)
	e.PutLongLong(f.Seq)
	e.PutULong(uint32(f.Type))
	e.PutULong(uint32(f.Size))
	return buf[:n]
}
