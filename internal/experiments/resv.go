package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/avstreams"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/video"
)

// Reservation rates from the paper: a full reservation carries 30 fps
// MPEG-1 (~1.2 Mbps payload plus per-packet overhead); the partial
// reservation is 670 Kbps, not enough for full rate.
const (
	// FullReservationBps covers the full 30 fps stream including
	// fragmentation overhead.
	FullReservationBps = 1.35e6
	// PartialReservationBps is the paper's partial reservation.
	PartialReservationBps = 670e3
	// LoadBps is the paper's network load pulse.
	LoadBps = 43.8e6
	// LoadFlows is how many flows the load generator spreads across.
	// With fair-queued best effort at the bottleneck, 20 flows leave a
	// per-flow fair share of ~0.48 Mbps — enough for an I-frames-only
	// stream but far too little for full-rate video, matching the
	// testbed's behaviour.
	LoadFlows = 20
)

// resvConfig parameterises one Figure 7 / Table 1 case.
type resvConfig struct {
	name       string
	reserveBps float64 // 0 = none
	filtering  bool
	duration   time.Duration
	loadStart  time.Duration
	loadDur    time.Duration
	seed       int64
}

// ResvCaseResult is one case's outcome.
type ResvCaseResult struct {
	Name string
	// SentPerSec and RecvPerSec are the Figure 7 series.
	SentPerSec, RecvPerSec []int64
	// DeliveredUnderLoad is received/sent during the load window.
	DeliveredUnderLoad float64
	// LatencyUnderLoad summarises frame latencies during the load
	// window (seconds).
	LatencyUnderLoad metrics.Summary
	// LatencyOverall summarises the whole run.
	LatencyOverall metrics.Summary
	// FilterTransitions counts QuO filter-level changes.
	FilterTransitions int64
	// LoadStart and LoadEnd delimit the load window.
	LoadStart, LoadEnd time.Duration
}

// ReservationTopology builds the paper's two-laptop video delivery
// testbed (Figure 7 / Table 1): sender and receiver on a 10 Mbps link
// with QoS-capable queues.
func ReservationTopology(seed int64) *core.System {
	sys := core.NewSystem(seed)
	sys.AddMachine("sender", rtos.HostConfig{Hz: 750e6, Quantum: time.Millisecond})
	sys.AddMachine("receiver", rtos.HostConfig{Hz: 750e6, Quantum: time.Millisecond})
	sys.Link("sender", "receiver", core.LinkSpec{
		Bps:        10e6,
		Delay:      500 * time.Microsecond,
		Profile:    core.ProfileFullQoS,
		QueueBytes: 64 * 1024,
	})
	return sys
}

// runReservationCase runs one Figure 7 / Table 1 case on the
// reservation testbed: MPEG video for the full duration, and an extra
// 43.8 Mbps network load during the pulse window.
func runReservationCase(cfg resvConfig) ResvCaseResult {
	sys := ReservationTopology(cfg.seed)
	defer sys.Close()
	snd, rcv := sys.Machine("sender"), sys.Machine("receiver")

	recv := rcv.AV().CreateReceiver(5000, 50, nil)
	sender := snd.AV().CreateSender(5001)

	res := ResvCaseResult{
		Name:      cfg.name,
		LoadStart: cfg.loadStart,
		LoadEnd:   cfg.loadStart + cfg.loadDur,
	}

	var stream *avstreams.Stream
	var adaptation *core.VideoAdaptation
	snd.Host.Spawn("source", 50, func(t *rtos.Thread) {
		qos := avstreams.QoS{}
		if cfg.reserveBps > 0 {
			qos.ReserveBps = cfg.reserveBps
			qos.BurstBytes = 24 * 1024
			// The per-hop flow queue bounds how much backlog a partial
			// reservation can accumulate (and hence its worst latency),
			// like the testbed's socket and driver buffers.
			qos.QueueBytes = 64 * 1024
		}
		st, err := sender.Bind(t.Proc(), recv.Addr(), qos)
		if err != nil {
			panic(fmt.Sprintf("bind: %v", err))
		}
		stream = st
		if cfg.filtering {
			adaptation = sys.NewVideoAdaptation(st, recv)
		}
		st.RunSource(t, video.NewGenerator(), cfg.duration)
	})

	var load *netsim.CrossTraffic
	sys.K.After(cfg.loadStart, func() {
		load = netsim.StartCrossTraffic(sys.Net, snd.Node, rcv.Node, 6000, LoadBps, LoadFlows, netsim.DSCPBestEffort)
	})
	sys.K.After(cfg.loadStart+cfg.loadDur, func() { load.Stop() })

	sys.RunUntil(cfg.duration + 5*time.Second)

	horizon := int(cfg.duration/time.Second) + 1
	res.SentPerSec, _ = stream.Stats.PerSecond(horizon)
	_, res.RecvPerSec = recv.Stats.PerSecond(horizon)

	// Load-window accounting.
	loadLo := int(cfg.loadStart / time.Second)
	loadHi := int((cfg.loadStart + cfg.loadDur) / time.Second)
	var sentLoad, recvLoad int64
	for s := loadLo; s < loadHi && s < horizon; s++ {
		sentLoad += res.SentPerSec[s]
		recvLoad += res.RecvPerSec[s]
	}
	if sentLoad > 0 {
		res.DeliveredUnderLoad = float64(recvLoad) / float64(sentLoad)
	} else {
		res.DeliveredUnderLoad = 1
	}

	// Latency of frames received during the load window vs overall.
	var underLoad, overall []float64
	for _, d := range recv.Latency {
		overall = append(overall, d.Seconds())
	}
	lo, hi := cfg.loadStart, cfg.loadStart+cfg.loadDur
	for i, at := range recv.ArrivalTimes() {
		if at >= lo && at < hi {
			underLoad = append(underLoad, recv.Latency[i].Seconds())
		}
	}
	res.LatencyUnderLoad = metrics.Summarize(underLoad)
	res.LatencyOverall = metrics.Summarize(overall)
	if adaptation != nil {
		res.FilterTransitions = adaptation.Transitions
	}
	return res
}

// Table1Result is the full six-case grid.
type Table1Result struct {
	Cases []ResvCaseResult
}

// RunTable1 reproduces Table 1: every combination of {no, partial, full}
// reservation x {no filtering, filtering}.
func RunTable1(opt Options) Table1Result { return run(table1(opt)) }

// table1 lists Table 1's six cases and assembles their result.
func table1(opt Options) ([]simCase, func() Table1Result) {
	r := Table1Result{Cases: make([]ResvCaseResult, 6)}
	c := r.Cases
	return []simCase{
		resvCase(opt, "No Adaptation", 0, false, &c[0]),
		resvCase(opt, "Partial Reservation", PartialReservationBps, false, &c[1]),
		resvCase(opt, "Full Reservation", FullReservationBps, false, &c[2]),
		resvCase(opt, "No Reservation; Frame Filtering", 0, true, &c[3]),
		resvCase(opt, "Partial Reservation; Frame Filtering", PartialReservationBps, true, &c[4]),
		resvCase(opt, "Full Reservation; Frame Filtering", FullReservationBps, true, &c[5]),
	}, func() Table1Result { return r }
}

// resvCase is the Figure 7 / Table 1 case that runs the named
// reservation and filtering combination into out.
func resvCase(opt Options, name string, reserveBps float64, filtering bool, out *ResvCaseResult) simCase {
	dur := opt.duration(300 * time.Second)
	cfg := resvConfig{
		name:       name,
		reserveBps: reserveBps,
		filtering:  filtering,
		duration:   dur,
		loadStart:  dur / 5,
		loadDur:    dur / 5,
		seed:       opt.seed(),
	}
	return simCase{name, func() { *out = runReservationCase(cfg) }}
}

// Render prints Table 1 in the paper's layout.
func (r Table1Result) Render() string {
	tb := metrics.NewTable("Table 1 — network reservation experiments (under load)",
		"Case", "% Frames Delivered", "Average Latency", "Std Dev")
	for _, c := range r.Cases {
		tb.AddRow(c.Name,
			metrics.FormatPercent(c.DeliveredUnderLoad),
			metrics.FormatDuration(c.LatencyUnderLoad.MeanDuration()),
			metrics.FormatDuration(c.LatencyUnderLoad.StdDuration()),
		)
	}
	return tb.Render()
}

// Figure7Result holds the three delivery-over-time series the paper
// plots.
type Figure7Result struct {
	NoAdaptation      ResvCaseResult
	PartialWithFilter ResvCaseResult
	FullReservation   ResvCaseResult
}

// RunFigure7 reproduces Figure 7's three cases.
func RunFigure7(opt Options) Figure7Result {
	var r Figure7Result
	runCases([]simCase{
		resvCase(opt, "No Adaptation", 0, false, &r.NoAdaptation),
		resvCase(opt, "Partial Resv and Frame Filtering", PartialReservationBps, true, &r.PartialWithFilter),
		resvCase(opt, "Full Reservation", FullReservationBps, false, &r.FullReservation),
	})
	return r
}

// Render prints the per-second sent/received series for each case.
func (r Figure7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7 — predictability of image delivery using network reservation\n")
	for _, c := range []ResvCaseResult{r.NoAdaptation, r.PartialWithFilter, r.FullReservation} {
		fmt.Fprintf(&b, "\n# %s (load window %ds..%ds)\n# sec sent received\n",
			c.Name, int(c.LoadStart.Seconds()), int(c.LoadEnd.Seconds()))
		for s := range c.SentPerSec {
			fmt.Fprintf(&b, "%4d %4d %4d\n", s, c.SentPerSec[s], c.RecvPerSec[s])
		}
	}
	return b.String()
}
