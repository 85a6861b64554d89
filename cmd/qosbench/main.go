// Command qosbench is the one program for the simulated plane: it
// regenerates every table and figure from the paper's evaluation
// section (Section 5), runs the extension scenarios, and audits the
// claims all of them make.
//
// Usage:
//
//	qosbench [-run NAME] [-seed N] [-duration D] [-requests N]
//	         [-series] [-csv] [-plot] [-json] [-jsonl FILE]
//
// The runs are named in the table below; -h lists them. -run all runs
// the paper's figures and tables plus overload, slo and ablations.
// -run verify checks the paper's 14 claims, -run ablations the nine
// mechanism claims (each mechanism with and without), and -run audit
// both plus the claims of the extension scenarios (overload, failover
// with and without recovery, SLO, monitor and trace); each prints one
// table per group. Any run exits 1 when one of its claims fails.
//
// -duration scales the measured portion of each experiment; the default
// 0 selects each experiment's paper-scale length (30s for the DiffServ
// figures, 300s for the reservation runs, 40 images for Table 2).
// -series additionally dumps raw latency time series (the figures' line
// data) for the priority experiments. -json writes one BENCH_<name>.json
// per measured experiment with per-scenario latency percentiles and
// throughput, for machine consumption (regression tracking, plotting);
// with -run trace it writes the exemplar traces — spans, critical path
// and both per-layer decompositions — to BENCH_trace.json. -jsonl
// streams every span of -run trace to a file as JSON lines.
//
// chaos, obs and pubsub open real localhost sockets and run on the
// wall clock; every other run is virtual-time and byte-identical
// run to run for a given seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// env is what a run reads: the experiment options, the output and the
// flags that shape it.
type env struct {
	w        io.Writer
	opt      experiments.Options
	requests int
	series   bool
	csv      bool
	plot     bool
	json     bool
	jsonl    string
}

// namedRun is one -run mode. It writes its report to e.w and returns
// the claims it checked; an error ends qosbench with exit status 1.
type namedRun struct {
	name string
	all  bool // part of -run all
	run  func(e *env) ([]experiments.Check, error)
}

const (
	paperTitle     = "Reproduction self-check (paper claims vs this run)"
	mechanismTitle = "Mechanism ablations (each mechanism with vs without)"
	extensionTitle = "Extension scenarios (the verdicts each scenario prints)"
	isolationTitle = "EF/BE isolation on the live plane (observers off)"
)

var runs = []namedRun{
	{"fig2", true, func(e *env) ([]experiments.Check, error) {
		fmt.Fprintln(e.w, experiments.RunFigure2(e.opt).Render())
		return nil, nil
	}},
	{"fig4", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunFigure4(e.opt)
		fmt.Fprintln(e.w, r.Render())
		if e.plot {
			fmt.Fprintln(e.w, metrics.ASCIIPlot(r.NoTraffic.S1, 100, 10))
			fmt.Fprintln(e.w, metrics.ASCIIPlot(r.WithTraffic.S1, 100, 10))
		}
		e.dumpSeries(r.NoTraffic.S1, r.WithTraffic.S1)
		e.emit("fig4", append(prioStats(r.NoTraffic), prioStats(r.WithTraffic)...))
		return nil, nil
	}},
	{"fig5", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunFigure5(e.opt)
		fmt.Fprintln(e.w, r.Render())
		e.dumpSeries(r.NoTraffic.S1, r.NoTraffic.S2)
		e.emit("fig5", append(prioStats(r.NoTraffic), prioStats(r.WithTraffic)...))
		return nil, nil
	}},
	{"fig6", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunFigure6(e.opt)
		fmt.Fprintln(e.w, r.Render())
		if e.plot {
			fmt.Fprintln(e.w, metrics.ASCIIPlot(r.Combined.S1, 100, 10))
		}
		e.dumpSeries(r.Combined.S1, r.Combined.S2)
		e.emit("fig6", prioStats(r.Combined))
		return nil, nil
	}},
	{"fig7", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunFigure7(e.opt)
		fmt.Fprintln(e.w, r.Render())
		e.emit("fig7", []benchStat{resvStat(r.NoAdaptation), resvStat(r.PartialWithFilter), resvStat(r.FullReservation)})
		return nil, nil
	}},
	{"table1", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunTable1(e.opt)
		fmt.Fprintln(e.w, r.Render())
		var stats []benchStat
		for _, c := range r.Cases {
			stats = append(stats, resvStat(c))
		}
		e.emit("table1", stats)
		return nil, nil
	}},
	{"table2", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunTable2(e.opt)
		fmt.Fprintln(e.w, r.Render())
		var stats []benchStat
		for _, row := range r.Rows {
			stats = append(stats,
				summaryStat(row.Algo.String()+": no load", row.NoLoad),
				summaryStat(row.Algo.String()+": competing load", row.Load),
				summaryStat(row.Algo.String()+": load + reserve", row.Reserve))
		}
		e.emit("table2", stats)
		return nil, nil
	}},
	{"overload", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunOverload(e.opt)
		fmt.Fprint(e.w, r.Render())
		e.emit("overload", overloadStats(r))
		return r.Checks(), nil
	}},
	{"slo", true, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunSLO(e.opt)
		fmt.Fprint(e.w, r.Render())
		e.emit("slo", sloStats(r))
		return r.Checks(), nil
	}},
	{"ablations", true, func(e *env) ([]experiments.Check, error) {
		return e.printChecks(mechanismTitle, experiments.Ablations(e.opt)), nil
	}},
	{"verify", false, func(e *env) ([]experiments.Check, error) {
		return e.printChecks(paperTitle, experiments.Verify(e.opt)), nil
	}},
	{"audit", false, func(e *env) ([]experiments.Check, error) {
		return slices.Concat(
			e.printChecks(paperTitle, experiments.Verify(e.opt)),
			e.printChecks(mechanismTitle, experiments.Ablations(e.opt)),
			e.printChecks(extensionTitle, experiments.Extensions(e.opt))), nil
	}},
	{"failover", false, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunFailover(e.opt, false)
		fmt.Fprint(e.w, r.Render())
		return r.Checks(), nil
	}},
	{"failover-recover", false, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunFailover(e.opt, true)
		fmt.Fprint(e.w, r.Render())
		return r.Checks(), nil
	}},
	{"trace", false, runTrace},
	{"topo-diffserv", false, func(e *env) ([]experiments.Check, error) {
		sys := experiments.DiffServTopology(1)
		defer sys.Close()
		fmt.Fprint(e.w, dumpTopology(sys))
		return nil, nil
	}},
	{"topo-reservation", false, func(e *env) ([]experiments.Check, error) {
		sys, err := reservationTopology()
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		fmt.Fprint(e.w, dumpTopology(sys))
		return nil, nil
	}},
	// chaos, obs and pubsub open real localhost TCP sockets and burn
	// wall-clock time, unlike the virtual-time runs above.

	// chaos is a soak over real TCP with fault injection; it fails on
	// any breach of the robustness invariants.
	{"chaos", false, func(e *env) ([]experiments.Check, error) {
		rep, err := chaos.RunSoak(chaos.SoakConfig{
			Seed:     e.opt.Seed,
			Requests: e.requests,
			Log:      func(f string, a ...any) { fmt.Fprintf(e.w, "  "+f+"\n", a...) },
		})
		if err != nil {
			return nil, fmt.Errorf("chaos soak: %w", err)
		}
		fmt.Fprintln(e.w, rep.Render())
		e.emit("chaos", chaosStats(rep))
		return nil, violated("chaos soak", rep.Violations())
	}},
	// obs prices the observability plane: the EF/BE wire load with the
	// full observer stack (sampler + rules + runtime collector + SLO
	// tracker + profiler + live scraper) against an observers-off
	// baseline, whose EF/BE separation is the isolation claim it checks.
	{"obs", false, func(e *env) ([]experiments.Check, error) {
		res, err := runObsBench(e.opt.Duration)
		if err != nil {
			return nil, fmt.Errorf("obs bench: %w", err)
		}
		fmt.Fprintln(e.w, res.Render())
		e.emit("obs", obsStats(res))
		return e.printChecks(isolationTitle, []experiments.Check{isolationCheck(res.OffEF, res.OffBE)}), nil
	}},
	// pubsub runs the event channel under a best-effort flood and fails
	// on any breach of the dissemination invariants.
	{"pubsub", false, func(e *env) ([]experiments.Check, error) {
		r := experiments.RunPubSub(e.opt)
		fmt.Fprintln(e.w, r.Render())
		e.emit("pubsub", pubsubStats(r))
		return nil, violated("pubsub", r.Violations())
	}},
}

// runTrace traces the prio and video scenarios and prints each
// exemplar's span tree, per-layer breakdown and telemetry.
func runTrace(e *env) ([]experiments.Check, error) {
	var sink *trace.JSONL
	if e.jsonl != "" {
		f, err := os.Create(e.jsonl)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sink = trace.NewJSONL(f)
	}
	r := experiments.RunTrace(e.opt, sink)
	fmt.Fprint(e.w, r.Render())
	if e.json {
		data, err := r.JSON()
		if err != nil {
			return nil, fmt.Errorf("json: %w", err)
		}
		e.write("BENCH_trace.json", data)
	}
	if sink != nil && sink.Err() != nil {
		return nil, fmt.Errorf("jsonl export: %w", sink.Err())
	}
	return r.Checks(), nil
}

// violated turns a wall-clock run's invariant violations into an error.
func violated(what string, v []string) error {
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("%s invariant violated: %s", what, strings.Join(v, "; "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses args, runs the named experiments with their reports on w,
// and returns the exit status: 0, 1 if a claim failed or a run erred,
// 2 for bad usage. The closing wall-time line and failed claims go to
// stderr, so a virtual-time run's w is byte-identical run to run.
func run(args []string, w io.Writer) int {
	var names, inAll []string
	for _, r := range runs {
		names = append(names, r.name)
		if r.all {
			inAll = append(inAll, r.name)
		}
	}
	fs := flag.NewFlagSet("qosbench", flag.ContinueOnError)
	name := fs.String("run", "all", "experiment to run: all, "+strings.Join(names, ", ")+" (all = "+strings.Join(inAll, ", ")+")")
	e := &env{w: w}
	fs.Int64Var(&e.opt.Seed, "seed", 42, "simulation seed")
	fs.IntVar(&e.requests, "requests", 0, "chaos soak request count (0 = default 10000)")
	fs.DurationVar(&e.opt.Duration, "duration", 0, "override experiment duration (0 = paper scale)")
	fs.BoolVar(&e.series, "series", false, "dump raw latency series for fig4/fig5/fig6")
	fs.BoolVar(&e.csv, "csv", false, "emit latency series as CSV instead of gnuplot-style text")
	fs.BoolVar(&e.plot, "plot", false, "render ASCII plots of the figure series")
	fs.BoolVar(&e.json, "json", false, "write BENCH_<name>.json with per-scenario percentiles and throughput (trace: the exemplar traces)")
	fs.StringVar(&e.jsonl, "jsonl", "", "with -run trace, write every span as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	start := time.Now()
	var checks []experiments.Check
	ran := 0
	for _, r := range runs {
		if *name != r.name && !(*name == "all" && r.all) {
			continue
		}
		c, err := r.run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosbench: %s: %v\n", r.name, err)
			return 1
		}
		checks = append(checks, c...)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *name)
		fs.Usage()
		return 2
	}
	fmt.Fprintf(os.Stderr, "qosbench: %d experiment(s) in %v wall time\n", ran, time.Since(start).Round(time.Millisecond))
	failed := 0
	for _, c := range checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "qosbench: claim failed: %s: %s (%s)\n", c.Experiment, c.Claim, c.Detail)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printChecks prints checks as a table under title and returns them.
func (e *env) printChecks(title string, checks []experiments.Check) []experiments.Check {
	fmt.Fprintln(e.w, experiments.RenderChecks(title, checks))
	return checks
}

// dumpSeries prints latency series with -series, either as CSV or
// gnuplot-style text.
func (e *env) dumpSeries(series ...*metrics.Series) {
	if !e.series {
		return
	}
	for _, s := range series {
		if e.csv {
			if err := s.WriteCSV(e.w); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			}
		} else {
			fmt.Fprintln(e.w, experiments.RenderSeries(s))
		}
	}
}

// benchStat is one scenario's entry in a BENCH_<name>.json file.
// Latencies are milliseconds; throughput is samples per simulated second.
type benchStat struct {
	Scenario   string  `json:"scenario"`
	Samples    int     `json:"samples"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Throughput float64 `json:"throughput_per_sec"`
	// ShedRate is the fraction of offered load deliberately shed (the
	// overload low band and the obs BE observers-off entry). It is a
	// pointer so a measured zero still serializes.
	ShedRate *float64 `json:"shed_rate,omitempty"`
	// SLO-scenario fields: when each alerting strategy first fired
	// (virtual ms, 0 = never), the sampler's kept-trace rate, and the
	// fraction of deadline-missed invocations with a kept trace.
	BurnFiredMs  float64 `json:"burn_fired_ms,omitempty"`
	AlertFiredMs float64 `json:"alert_fired_ms,omitempty"`
	KeptPerSec   float64 `json:"kept_traces_per_sec,omitempty"`
	MissKept     float64 `json:"deadline_miss_kept_ratio,omitempty"`
	// Chaos-scenario fields: successful-failover latency percentiles,
	// retry-budget accounting, and the recovery bounds measured around
	// the primary kill/restart window.
	FailoverP50Ms     float64 `json:"failover_p50_ms,omitempty"`
	FailoverP99Ms     float64 `json:"failover_p99_ms,omitempty"`
	RetryBudgetSpent  int64   `json:"retry_budget_spent,omitempty"`
	RetryBudgetDenied int64   `json:"retry_budget_denied,omitempty"`
	ServiceGapMs      float64 `json:"service_gap_ms,omitempty"`
	RedetectMs        float64 `json:"redetect_ms,omitempty"`
	// Observability-scenario fields: the EF p99 cost of the full
	// observer stack relative to the observers-off baseline, and the
	// observer-activity counts proving the stack was actually running.
	OverheadRatio   float64 `json:"overhead_ratio,omitempty"`
	SamplerTicks    int     `json:"sampler_ticks,omitempty"`
	ProfileCaptures float64 `json:"profile_captures,omitempty"`
	EventsStreamed  int     `json:"events_streamed,omitempty"`
	// Pub/sub-scenario fields: loaded-over-baseline EF fan-out p99
	// ratio, admission refusals, and drop attribution. EFDrops is a
	// pointer so the mandatory zero still serializes.
	FanoutP99Ratio float64 `json:"fanout_p99_ratio,omitempty"`
	EFDrops        *int64  `json:"ef_drops,omitempty"`
	SlowDrops      int64   `json:"slow_drops,omitempty"`
	OtherDrops     int64   `json:"other_drops,omitempty"`
	Refused        int64   `json:"refused,omitempty"`
	CoalescedN     int64   `json:"coalesced,omitempty"`
	SampledN       int64   `json:"sampled,omitempty"`
	DropRecords    int     `json:"drop_records,omitempty"`
}

type benchFile struct {
	Name      string      `json:"name"`
	Seed      int64       `json:"seed"`
	Scenarios []benchStat `json:"scenarios"`
}

// latStat is a scenario's sample count and latency percentiles in
// milliseconds.
func latStat(scenario string, n int, p50, p95, p99 float64) benchStat {
	return benchStat{Scenario: scenario, Samples: n, P50Ms: p50, P95Ms: p95, P99Ms: p99}
}

// summaryMs is latStat for a summary in seconds.
func summaryMs(scenario string, sum metrics.Summary) benchStat {
	return latStat(scenario, sum.N, sum.P50*1e3, sum.P95*1e3, sum.P99*1e3)
}

// classStat is latStat for a wall-clock class report (already in ms),
// with its throughput.
func classStat(scenario string, c wire.ClassReport) benchStat {
	st := latStat(scenario, int(c.OK), c.Latency.P50, c.Latency.P95, c.Latency.P99)
	st.Throughput = c.Throughput
	return st
}

// seriesStat derives a benchStat from a latency series and its summary:
// percentiles from the summary, throughput from the sample count over
// the series' observed time span.
func seriesStat(scenario string, s *metrics.Series, sum metrics.Summary) benchStat {
	st := summaryMs(scenario, sum)
	if n := len(s.Points); n > 1 {
		if span := time.Duration(s.Points[n-1].T - s.Points[0].T).Seconds(); span > 0 {
			st.Throughput = float64(n-1) / span
		}
	}
	return st
}

// chaosStats reports the chaos soak: EF latency with and without BE
// torture (the isolation claim), BE latency under torture, and one
// failover/recovery entry carrying the budget and bound measurements.
func chaosStats(r *chaos.SoakReport) []benchStat {
	rate := func(n int, ms float64) float64 {
		if ms <= 0 {
			return 0
		}
		return float64(n) / (ms / 1000)
	}
	stat := func(scenario string, n int, p50, p95, p99, ms float64) benchStat {
		st := latStat(scenario, n, p50, p95, p99)
		st.Throughput = rate(n, ms)
		return st
	}
	fo := stat("chaos failover/recovery", r.Failovers, r.FailoverP50Ms, r.FailoverP95Ms, r.FailoverP99Ms, r.FaultMs)
	fo.FailoverP50Ms, fo.FailoverP99Ms = r.FailoverP50Ms, r.FailoverP99Ms
	fo.RetryBudgetSpent, fo.RetryBudgetDenied = r.RetryBudgetSpent, r.RetryBudgetDenied
	fo.ServiceGapMs, fo.RedetectMs = r.ServiceGapMs, r.RedetectMs
	return []benchStat{
		stat("chaos EF baseline (no faults)", r.EFBaselineN, r.EFBaselineP50Ms, r.EFBaselineP95Ms, r.EFBaselineP99Ms, r.WarmMs),
		stat("chaos EF under BE torture", r.EFFaultN, r.EFFaultP50Ms, r.EFFaultP95Ms, r.EFFaultP99Ms, r.FaultMs),
		stat("chaos BE under torture (latency + kill/restart)", r.BEFaultN, r.BEFaultP50Ms, r.BEFaultP95Ms, r.BEFaultP99Ms, r.FaultMs),
		fo,
	}
}

// obsStats reports the observer-overhead run: EF percentiles with
// observers off and on (the overhead entry carries the ratio and the
// observer-activity evidence), plus both BE entries. The observers-off
// pair is the EF-vs-BE separation; its BE entry carries the server's
// shed fraction (admission refusals + deadline sheds over offered load).
func obsStats(r *obsResult) []benchStat {
	off := classStat("obs EF observers off", r.OffEF)
	on := classStat("obs EF observers on (sampler+runtime+slo+profiler+scraper)", r.OnEF)
	on.OverheadRatio = r.OverheadP99
	on.SamplerTicks = r.SamplerTicks
	on.ProfileCaptures = r.ProfileCaptures
	on.EventsStreamed = r.EventsStreamed
	offBE := classStat("obs BE observers off", r.OffBE)
	if r.OffBE.Offered > 0 {
		shed := float64(r.OffRefused+r.OffShed) / float64(r.OffBE.Offered)
		offBE.ShedRate = &shed
	}
	return []benchStat{off, on, offBE, classStat("obs BE observers on", r.OnBE)}
}

// pubsubStats reports the pub/sub scenario: EF fan-out percentiles for
// the unloaded and flooded phases, with the loaded entry carrying the
// ratio, admission, and drop-attribution evidence.
func pubsubStats(r experiments.PubSubResult) []benchStat {
	base := summaryMs("pubsub EF fan-out, unloaded baseline (wall clock)", r.Baseline)
	efDrops := int64(r.EFDropped)
	load := summaryMs("pubsub EF fan-out under BE flood (wall clock)", r.Loaded)
	load.FanoutP99Ratio = r.FanoutP99Ratio()
	load.EFDrops = &efDrops
	load.SlowDrops, load.OtherDrops = int64(r.SlowOverflow), int64(r.OtherOverflow)
	load.Refused, load.CoalescedN, load.SampledN = int64(r.Refused), int64(r.Coalesced), int64(r.Sampled)
	load.DropRecords = r.DropRecords
	if r.Duration > 0 {
		load.Throughput = float64(r.EFDelivered) / r.Duration.Seconds()
	}
	return []benchStat{base, load}
}

// prioStats reports both receiver flows of a DiffServ priority case.
func prioStats(c experiments.PrioCaseResult) []benchStat {
	return []benchStat{
		seriesStat(c.Name+" / sender 1", c.S1, c.Sum1),
		seriesStat(c.Name+" / sender 2", c.S2, c.Sum2),
	}
}

// resvStat reports a reservation case: latency percentiles over the
// load window, throughput as mean frames received per second.
func resvStat(c experiments.ResvCaseResult) benchStat {
	st := summaryMs(c.Name, c.LatencyUnderLoad)
	if len(c.RecvPerSec) > 0 {
		var total int64
		for _, n := range c.RecvPerSec {
			total += n
		}
		st.Throughput = float64(total) / float64(len(c.RecvPerSec))
	}
	return st
}

// overloadStats reports the overload scenario: high-band latency during
// the 2x window, and the low band's shed rate with its served rate as
// throughput.
func overloadStats(r experiments.OverloadResult) []benchStat {
	high := summaryMs("overload / high band (2x window)", r.HighOver)
	if r.Duration > 0 {
		high.Throughput = float64(r.HighOK) / r.Duration.Seconds()
	}
	low := benchStat{
		Scenario: "overload / low band",
		Samples:  int(r.LowOffered),
		ShedRate: &r.ShedRate,
	}
	if r.Duration > 0 {
		low.Throughput = float64(r.LowServed) / r.Duration.Seconds()
	}
	return []benchStat{high, low}
}

// sloStats reports the SLO scenario: the successful-invocation RTT
// distribution (the app.rtt_ms histogram is already in milliseconds)
// plus the alerting head-to-head and sampling-economics fields.
func sloStats(r experiments.SLOResult) []benchStat {
	sum := r.Reg.Histogram("app.rtt_ms").Summary()
	st := latStat("slo / client rtt (successes)", sum.N, sum.P50, sum.P95, sum.P99)
	st.BurnFiredMs = float64(r.BurnFiredAt) / float64(time.Millisecond)
	st.AlertFiredMs = float64(r.AlertFiredAt) / float64(time.Millisecond)
	st.KeptPerSec = r.KeptPerSec
	if r.Duration > 0 {
		st.Throughput = float64(r.OK) / r.Duration.Seconds()
	}
	if r.MissTotal > 0 {
		st.MissKept = float64(r.MissKept) / float64(r.MissTotal)
	}
	return []benchStat{st}
}

// summaryStat reports a per-image processing-time summary; throughput
// is the implied steady-state image rate.
func summaryStat(scenario string, sum metrics.Summary) benchStat {
	st := summaryMs(scenario, sum)
	if sum.Mean > 0 {
		st.Throughput = 1 / sum.Mean
	}
	return st
}

// emit writes BENCH_<name>.json with -json.
func (e *env) emit(name string, stats []benchStat) {
	if !e.json {
		return
	}
	data, err := json.MarshalIndent(benchFile{Name: name, Seed: e.opt.Seed, Scenarios: stats}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		return
	}
	e.write("BENCH_"+name+".json", append(data, '\n'))
}

// write writes data to path in the current directory.
func (e *env) write(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		return
	}
	fmt.Fprintf(e.w, "wrote %s\n", path)
}
