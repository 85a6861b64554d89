// Command qosbench regenerates every table and figure from the paper's
// evaluation section (Section 5) on the simulated substrate.
//
// Usage:
//
//	qosbench [-run all|fig2|fig4|fig5|fig6|fig7|table1|table2|overload|slo|ablations|wire|chaos|obs|pubsub|verify]
//	         [-seed N] [-duration D] [-requests N] [-series]
//
// -duration scales the measured portion of each experiment; the default
// 0 selects each experiment's paper-scale length (30s for the DiffServ
// figures, 300s for the reservation runs, 40 images for Table 2).
// -run ablations runs each mechanism DESIGN.md §5 names with and
// without it and checks the benefit it must show; like -run verify it
// exits 1 when a claim fails. -series additionally dumps raw latency
// time series (the figures' line data) for the priority experiments.
// -json writes one BENCH_<name>.json per measured experiment with
// per-scenario latency percentiles and throughput, for machine
// consumption (regression tracking, plotting).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/wire"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, fig2, fig4, fig5, fig6, fig7, table1, table2, overload, slo, ablations, wire, chaos, obs, pubsub, verify (wire, chaos, obs, pubsub and verify are explicit-only)")
	seed := flag.Int64("seed", 42, "simulation seed")
	requests := flag.Int("requests", 0, "chaos soak request count (0 = default 10000)")
	duration := flag.Duration("duration", 0, "override experiment duration (0 = paper scale)")
	series := flag.Bool("series", false, "dump raw latency series for fig4/fig5/fig6")
	csv := flag.Bool("csv", false, "emit latency series as CSV instead of gnuplot-style text")
	plot := flag.Bool("plot", false, "render ASCII plots of the figure series")
	jsonOut := flag.Bool("json", false, "write BENCH_<name>.json with per-scenario percentiles and throughput")
	flag.Parse()

	opt := experiments.Options{Seed: *seed, Duration: *duration}
	start := time.Now()
	ran := 0

	want := func(name string) bool { return *run == "all" || *run == name }
	emit := func(name string, stats []benchStat) {
		if *jsonOut {
			writeBench(name, *seed, stats)
		}
	}

	if want("fig2") {
		fmt.Println(experiments.RunFigure2(opt).Render())
		ran++
	}
	if want("fig4") {
		r := experiments.RunFigure4(opt)
		fmt.Println(r.Render())
		if *plot {
			fmt.Println(metrics.ASCIIPlot(r.NoTraffic.S1, 100, 10))
			fmt.Println(metrics.ASCIIPlot(r.WithTraffic.S1, 100, 10))
		}
		if *series {
			dumpSeries(*csv, r.NoTraffic.S1, r.WithTraffic.S1)
		}
		emit("fig4", append(prioStats(r.NoTraffic), prioStats(r.WithTraffic)...))
		ran++
	}
	if want("fig5") {
		r := experiments.RunFigure5(opt)
		fmt.Println(r.Render())
		if *series {
			dumpSeries(*csv, r.NoTraffic.S1, r.NoTraffic.S2)
		}
		emit("fig5", append(prioStats(r.NoTraffic), prioStats(r.WithTraffic)...))
		ran++
	}
	if want("fig6") {
		r := experiments.RunFigure6(opt)
		fmt.Println(r.Render())
		if *plot {
			fmt.Println(metrics.ASCIIPlot(r.Combined.S1, 100, 10))
		}
		if *series {
			dumpSeries(*csv, r.Combined.S1, r.Combined.S2)
		}
		emit("fig6", prioStats(r.Combined))
		ran++
	}
	if want("fig7") {
		r := experiments.RunFigure7(opt)
		fmt.Println(r.Render())
		emit("fig7", []benchStat{resvStat(r.NoAdaptation), resvStat(r.PartialWithFilter), resvStat(r.FullReservation)})
		ran++
	}
	if want("table1") {
		r := experiments.RunTable1(opt)
		fmt.Println(r.Render())
		var stats []benchStat
		for _, c := range r.Cases {
			stats = append(stats, resvStat(c))
		}
		emit("table1", stats)
		ran++
	}
	if want("table2") {
		r := experiments.RunTable2(opt)
		fmt.Println(r.Render())
		var stats []benchStat
		for _, row := range r.Rows {
			stats = append(stats,
				summaryStat(row.Algo.String()+": no load", row.NoLoad),
				summaryStat(row.Algo.String()+": competing load", row.Load),
				summaryStat(row.Algo.String()+": load + reserve", row.Reserve))
		}
		emit("table2", stats)
		ran++
	}
	if want("overload") {
		r := experiments.RunOverload(opt)
		fmt.Println(r.Render())
		emit("overload", overloadStats(r))
		ran++
	}
	if want("slo") {
		r := experiments.RunSLO(opt)
		fmt.Print(r.SLO.Render())
		fmt.Printf("burn fired %v, p95 rule fired %v; %d/%d deadline misses kept; %.1f traces/s kept\n\n",
			renderFired(r.BurnFired, r.BurnFiredAt), renderFired(r.AlertFired, r.AlertFiredAt),
			r.MissKept, r.MissTotal, r.KeptPerSec)
		emit("slo", sloStats(r))
		ran++
	}
	if want("ablations") {
		printChecks("Mechanism ablations (each mechanism with vs without)", experiments.Ablations(opt))
		ran++
	}
	// "wire" is explicit-only (not part of -run all): it opens real
	// localhost TCP sockets and burns wall-clock time, unlike the
	// virtual-time experiments above.
	if *run == "wire" {
		res, err := wire.RunBench(wire.BenchOptions{Duration: *duration})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wire bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		emit("wire", wireStats(res))
		ran++
	}
	// "chaos" is likewise explicit-only: a wall-clock soak over real TCP
	// with fault injection, asserting the robustness invariants hard
	// (non-zero exit on any breach, for the CI smoke step).
	if *run == "chaos" {
		rep, err := chaos.RunSoak(chaos.SoakConfig{
			Seed:     *seed,
			Requests: *requests,
			Log:      func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos soak: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.Render())
		emit("chaos", chaosStats(rep))
		if v := rep.Violations(); len(v) > 0 {
			for _, msg := range v {
				fmt.Fprintf(os.Stderr, "chaos soak invariant violated: %s\n", msg)
			}
			os.Exit(1)
		}
		ran++
	}
	// "obs" is explicit-only: it prices the wall-clock observability
	// plane by running the wire load with the full observer stack
	// (sampler + rules + runtime collector + SLO tracker + profiler +
	// live scraper) against an observers-off baseline.
	if *run == "obs" {
		res, err := wire.RunObsBench(wire.BenchOptions{Duration: *duration})
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		emit("obs", obsStats(res))
		ran++
	}
	// "pubsub" is explicit-only: a wall-clock run of the event channel
	// under a best-effort flood, asserting the dissemination invariants
	// hard (non-zero exit on any breach, for the CI smoke step).
	if *run == "pubsub" {
		r := experiments.RunPubSub(opt)
		fmt.Println(r.Render())
		emit("pubsub", pubsubStats(r))
		if v := r.Violations(); len(v) > 0 {
			for _, msg := range v {
				fmt.Fprintf(os.Stderr, "pubsub invariant violated: %s\n", msg)
			}
			os.Exit(1)
		}
		ran++
	}
	if *run == "verify" {
		printChecks("Reproduction self-check (paper claims vs this run)", experiments.Verify(opt))
		ran++
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("qosbench: %d experiment(s) in %v wall time\n", ran, time.Since(start).Round(time.Millisecond))
}

// printChecks prints checks as a table under title and exits 1 if any
// claim failed.
func printChecks(title string, checks []experiments.Check) {
	fmt.Println(experiments.RenderChecks(title, checks))
	for _, c := range checks {
		if !c.OK {
			os.Exit(1)
		}
	}
}

// dumpSeries prints latency series either as CSV or gnuplot-style text.
func dumpSeries(csv bool, series ...*metrics.Series) {
	for _, s := range series {
		if csv {
			if err := s.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			}
		} else {
			fmt.Println(experiments.RenderSeries(s))
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
	// ShedRate is the fraction of offered load deliberately shed
	// (overload scenarios only).
	ShedRate float64 `json:"shed_rate,omitempty"`
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

// seriesStat derives a benchStat from a latency series and its summary:
// percentiles from the summary, throughput from the sample count over
// the series' observed time span.
func seriesStat(scenario string, s *metrics.Series, sum metrics.Summary) benchStat {
	st := benchStat{
		Scenario: scenario,
		Samples:  sum.N,
		P50Ms:    sum.P50 * 1e3,
		P95Ms:    sum.P95 * 1e3,
		P99Ms:    sum.P99 * 1e3,
	}
	if n := len(s.Points); n > 1 {
		if span := time.Duration(s.Points[n-1].T - s.Points[0].T).Seconds(); span > 0 {
			st.Throughput = float64(n-1) / span
		}
	}
	return st
}

// wireStats reports the real-socket wire benchmark: wall-clock
// percentiles per class (ClassReport latencies are already ms),
// throughput as completed calls per second, and the best-effort
// class's server-side shed fraction (admission refusals + deadline
// sheds over offered load) — the EF entry should show a p99 far below
// the BE entry's.
func wireStats(r *wire.BenchResult) []benchStat {
	ef := benchStat{
		Scenario:   "wire EF (expedited, wall clock)",
		Samples:    int(r.EF.OK),
		P50Ms:      r.EF.Latency.P50,
		P95Ms:      r.EF.Latency.P95,
		P99Ms:      r.EF.Latency.P99,
		Throughput: r.EF.Throughput,
	}
	be := benchStat{
		Scenario:   "wire BE (best-effort, wall clock)",
		Samples:    int(r.BE.OK),
		P50Ms:      r.BE.Latency.P50,
		P95Ms:      r.BE.Latency.P95,
		P99Ms:      r.BE.Latency.P99,
		Throughput: r.BE.Throughput,
	}
	if r.BE.Offered > 0 {
		be.ShedRate = (r.Refused + r.Shed) / float64(r.BE.Offered)
	}
	return []benchStat{ef, be}
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
	return []benchStat{
		{
			Scenario:   "chaos EF baseline (no faults)",
			Samples:    r.EFBaselineN,
			P50Ms:      r.EFBaselineP50Ms,
			P95Ms:      r.EFBaselineP95Ms,
			P99Ms:      r.EFBaselineP99Ms,
			Throughput: rate(r.EFBaselineN, r.WarmMs),
		},
		{
			Scenario:   "chaos EF under BE torture",
			Samples:    r.EFFaultN,
			P50Ms:      r.EFFaultP50Ms,
			P95Ms:      r.EFFaultP95Ms,
			P99Ms:      r.EFFaultP99Ms,
			Throughput: rate(r.EFFaultN, r.FaultMs),
		},
		{
			Scenario:   "chaos BE under torture (latency + kill/restart)",
			Samples:    r.BEFaultN,
			P50Ms:      r.BEFaultP50Ms,
			P95Ms:      r.BEFaultP95Ms,
			P99Ms:      r.BEFaultP99Ms,
			Throughput: rate(r.BEFaultN, r.FaultMs),
		},
		{
			Scenario:          "chaos failover/recovery",
			Samples:           r.Failovers,
			P50Ms:             r.FailoverP50Ms,
			P95Ms:             r.FailoverP95Ms,
			P99Ms:             r.FailoverP99Ms,
			Throughput:        rate(r.Failovers, r.FaultMs),
			FailoverP50Ms:     r.FailoverP50Ms,
			FailoverP99Ms:     r.FailoverP99Ms,
			RetryBudgetSpent:  r.RetryBudgetSpent,
			RetryBudgetDenied: r.RetryBudgetDenied,
			ServiceGapMs:      r.ServiceGapMs,
			RedetectMs:        r.RedetectMs,
		},
	}
}

// obsStats reports the observer-overhead benchmark: EF percentiles
// with observers off and on (the overhead entry carries the ratio and
// the observer-activity evidence), plus both BE entries for context.
func obsStats(r *wire.ObsBenchResult) []benchStat {
	class := func(scenario string, c wire.ClassReport) benchStat {
		return benchStat{
			Scenario:   scenario,
			Samples:    int(c.OK),
			P50Ms:      c.Latency.P50,
			P95Ms:      c.Latency.P95,
			P99Ms:      c.Latency.P99,
			Throughput: c.Throughput,
		}
	}
	off := class("obs EF observers off", r.OffEF)
	on := class("obs EF observers on (sampler+runtime+slo+profiler+scraper)", r.OnEF)
	on.OverheadRatio = r.OverheadP99
	on.SamplerTicks = r.SamplerTicks
	on.ProfileCaptures = r.ProfileCaptures
	on.EventsStreamed = r.EventsStreamed
	return []benchStat{
		off, on,
		class("obs BE observers off", r.OffBE),
		class("obs BE observers on", r.OnBE),
	}
}

// pubsubStats reports the pub/sub scenario: EF fan-out percentiles for
// the unloaded and flooded phases, with the loaded entry carrying the
// ratio, admission, and drop-attribution evidence.
func pubsubStats(r experiments.PubSubResult) []benchStat {
	base := benchStat{
		Scenario: "pubsub EF fan-out, unloaded baseline (wall clock)",
		Samples:  r.Baseline.N,
		P50Ms:    r.Baseline.P50 * 1e3,
		P95Ms:    r.Baseline.P95 * 1e3,
		P99Ms:    r.Baseline.P99 * 1e3,
	}
	efDrops := int64(r.EFDropped)
	load := benchStat{
		Scenario:       "pubsub EF fan-out under BE flood (wall clock)",
		Samples:        r.Loaded.N,
		P50Ms:          r.Loaded.P50 * 1e3,
		P95Ms:          r.Loaded.P95 * 1e3,
		P99Ms:          r.Loaded.P99 * 1e3,
		FanoutP99Ratio: r.FanoutP99Ratio(),
		EFDrops:        &efDrops,
		SlowDrops:      int64(r.SlowOverflow),
		OtherDrops:     int64(r.OtherOverflow),
		Refused:        int64(r.Refused),
		CoalescedN:     int64(r.Coalesced),
		SampledN:       int64(r.Sampled),
		DropRecords:    r.DropRecords,
	}
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
	st := benchStat{
		Scenario: c.Name,
		Samples:  c.LatencyUnderLoad.N,
		P50Ms:    c.LatencyUnderLoad.P50 * 1e3,
		P95Ms:    c.LatencyUnderLoad.P95 * 1e3,
		P99Ms:    c.LatencyUnderLoad.P99 * 1e3,
	}
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
	high := benchStat{
		Scenario: "overload / high band (2x window)",
		Samples:  r.HighOver.N,
		P50Ms:    r.HighOver.P50 * 1e3,
		P95Ms:    r.HighOver.P95 * 1e3,
		P99Ms:    r.HighOver.P99 * 1e3,
	}
	if r.Duration > 0 {
		high.Throughput = float64(r.HighOK) / r.Duration.Seconds()
	}
	low := benchStat{
		Scenario: "overload / low band",
		Samples:  int(r.LowOffered),
		ShedRate: r.ShedRate,
	}
	if r.Duration > 0 {
		low.Throughput = float64(r.LowServed) / r.Duration.Seconds()
	}
	return []benchStat{high, low}
}

// renderFired formats a first-firing time for the slo summary line.
func renderFired(fired bool, at time.Duration) string {
	if !fired {
		return "never"
	}
	return at.String()
}

// sloStats reports the SLO scenario: the successful-invocation RTT
// distribution (the app.rtt_ms histogram is already in milliseconds)
// plus the alerting head-to-head and sampling-economics fields.
func sloStats(r experiments.SLOResult) []benchStat {
	sum := r.Reg.Histogram("app.rtt_ms").Summary()
	st := benchStat{
		Scenario:     "slo / client rtt (successes)",
		Samples:      sum.N,
		P50Ms:        sum.P50,
		P95Ms:        sum.P95,
		P99Ms:        sum.P99,
		BurnFiredMs:  float64(r.BurnFiredAt) / float64(time.Millisecond),
		AlertFiredMs: float64(r.AlertFiredAt) / float64(time.Millisecond),
		KeptPerSec:   r.KeptPerSec,
	}
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
	st := benchStat{
		Scenario: scenario,
		Samples:  sum.N,
		P50Ms:    sum.P50 * 1e3,
		P95Ms:    sum.P95 * 1e3,
		P99Ms:    sum.P99 * 1e3,
	}
	if sum.Mean > 0 {
		st.Throughput = 1 / sum.Mean
	}
	return st
}

// writeBench writes BENCH_<name>.json in the current directory.
func writeBench(name string, seed int64, stats []benchStat) {
	data, err := json.MarshalIndent(benchFile{Name: name, Seed: seed, Scenarios: stats}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		return
	}
	path := "BENCH_" + name + ".json"
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}
