// Command qosslo runs the SLO scenario and renders the causal-latency
// attribution report: the multi-window burn-rate state of the latency
// objective, the head-to-head race between burn-rate alerting and a raw
// p95 threshold rule under a best-effort flood, the QuO contract's
// burn-driven escalation timeline, the tail-based sampler's kept-trace
// economics, and — for the slowest deadline-missed invocation the
// sampler kept — the critical path naming the layer that ate the
// budget.
//
// Usage:
//
//	qosslo [-seed N] [-dur D] [-events]
//
// -events appends the full unified event timeline. Output is
// deterministic: repeated runs with the same flags are byte-identical.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/trace/sampling"
)

type options struct {
	seed      int64
	dur       time.Duration
	allEvents bool
}

// run executes the scenario and returns the full report as a string.
func run(opt options) string {
	r := experiments.RunSLO(experiments.Options{Seed: opt.seed, Duration: opt.dur})
	end := r.Duration + r.Every

	out := fmt.Sprintf("qosslo: burn-rate SLO plane + tail-based trace sampling (seed %d, %v virtual)\n",
		opt.seed, r.Duration)
	out += fmt.Sprintf("flood: best-effort datagrams in [%v, %v) against the server's 8 Mb/s access link\n\n",
		r.LoadStart, r.LoadEnd)

	obj := r.SLO.Objective()
	out += fmt.Sprintf("objective: %.3g%% of invocations within %v (budget %.3g%%)\n",
		100*obj.Goal, obj.LatencyBound, 100*(1-obj.Goal))
	out += r.SLO.Render() + "\n"

	out += "alerting head-to-head (same 30ms boundary, flood begins at " + r.LoadStart.String() + "):\n"
	if r.BurnFired {
		out += fmt.Sprintf("  burn-rate fast pair fired   %12v  (+%v after flood onset)\n",
			r.BurnFiredAt, r.BurnFiredAt-r.LoadStart)
	} else {
		out += "  burn-rate fast pair fired   never\n"
	}
	if r.AlertFired {
		out += fmt.Sprintf("  p95 rule (For=2) fired      %12v  (+%v after flood onset)\n",
			r.AlertFiredAt, r.AlertFiredAt-r.LoadStart)
	} else {
		out += "  p95 rule (For=2) fired      never\n"
	}
	if r.BurnFired && (!r.AlertFired || r.BurnFiredAt < r.AlertFiredAt) {
		lead := "unbounded"
		if r.AlertFired {
			lead = (r.AlertFiredAt - r.BurnFiredAt).String()
		}
		out += fmt.Sprintf("  winner: burn rate, by %s\n", lead)
	}
	out += "\n"

	out += "contract region timeline (conditions read the SLO burn, not raw latency):\n"
	for _, s := range r.Regions {
		out += fmt.Sprintf("%12v  %-10s %v\n", time.Duration(s.Start), s.Region, s.DurationAt(end))
	}
	out += "\n"

	st := r.Sampling
	tb := metrics.NewTable("Tail-based sampling verdicts", "Verdict", "Traces")
	tb.AddRow("keep:error", fmt.Sprint(st.KeepError))
	tb.AddRow("keep:tail", fmt.Sprint(st.KeepTail))
	tb.AddRow("keep:head", fmt.Sprint(st.KeepHead))
	tb.AddRow("drop", fmt.Sprint(st.Dropped))
	tb.AddRow("total", fmt.Sprint(st.Traces))
	out += tb.Render()
	out += fmt.Sprintf("kept %d of %d traces (%.1f/s against a %g/s head budget), %d resurrected by late spans\n",
		st.Kept, st.Traces, r.KeptPerSec, sampling.HeadBudget, st.Resurrected)
	out += fmt.Sprintf("spans stored %d, spans discarded %d\n\n", st.SpansKept, st.SpansDropped)

	out += fmt.Sprintf("deadline-miss audit: %d missed invocations, %d with a kept trace\n", r.MissTotal, r.MissKept)
	out += "critical-path guilty layer across kept misses:\n"
	for _, layer := range []string{"netsim", "poa", "orb", "rtcorba", "overload", "app"} {
		if n := r.Guilty[layer]; n > 0 {
			out += fmt.Sprintf("  %-10s %d\n", layer, n)
		}
	}
	if r.WorstMiss != 0 {
		out += fmt.Sprintf("\nslowest kept miss (trace %d) critical path:\n", r.WorstMiss)
		out += r.Kept.RenderCriticalPath(r.WorstMiss)
	}

	out += "\nslo_burn / alert / region timeline:\n"
	out += r.Timeline.Render(events.KindSLOBurn, events.KindAlert, events.KindRegion)
	out += "\nevent counts by kind:\n"
	out += r.Timeline.RenderCounts()

	out += "\nclosed-loop summary:\n"
	out += fmt.Sprintf("  client invocations   %d sent, %d ok, %d deadline-expired, %d failed\n",
		r.Sent, r.OK, r.Deadline, r.Failed)
	out += fmt.Sprintf("  flood offered        %d datagrams\n", r.BulkOffer)
	out += fmt.Sprintf("  qosket actions       %d escalation(s) to the EF band, %d de-escalation(s)\n",
		r.Escalate, r.Deescalate)
	for _, reg := range []string{"normal", "burning", "protected"} {
		out += fmt.Sprintf("  time in %-12s %v\n", reg, r.TimeIn[reg])
	}

	if opt.allEvents {
		out += "\nfull event timeline:\n"
		out += r.Timeline.Render()
	}
	return out
}

func main() {
	opt := options{}
	flag.Int64Var(&opt.seed, "seed", 42, "simulation seed")
	flag.DurationVar(&opt.dur, "dur", 0, "virtual duration (0 = default 12s; flood in the middle third)")
	flag.BoolVar(&opt.allEvents, "events", false, "append the full unified event timeline")
	flag.Parse()
	fmt.Print(run(opt))
}
