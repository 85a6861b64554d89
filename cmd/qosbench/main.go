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
// data) for the priority experiments. With -run trace, -json writes the
// exemplar traces — spans, critical path and both per-layer
// decompositions — to BENCH_trace.json, and -jsonl streams every span to
// a file as JSON lines; a failed write exits 1.
//
// chaos, obs and pubsub open real localhost sockets and run on the
// wall clock; every other run is virtual-time and byte-identical
// run to run for a given seed. Each of the three prints its invariants
// as one claims table and exits 1 when one of them fails.
package main

import (
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
	run  func(e *env) ([]metrics.Check, error)
}

const (
	paperTitle     = "Reproduction self-check (paper claims vs this run)"
	mechanismTitle = "Mechanism ablations (each mechanism with vs without)"
	extensionTitle = "Extension scenarios (the verdicts each scenario prints)"
	chaosTitle     = "Chaos soak over real TCP (robustness invariants)"
	obsTitle       = "Observability plane on the live wire (isolation, observers)"
	pubsubTitle    = "Pub/sub channel under flood (isolation invariants)"
)

var runs = []namedRun{
	{"fig2", true, func(e *env) ([]metrics.Check, error) {
		fmt.Fprintln(e.w, experiments.RunFigure2(e.opt).Render())
		return nil, nil
	}},
	{"fig4", true, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunFigure4(e.opt)
		fmt.Fprintln(e.w, r.Render())
		if e.plot {
			fmt.Fprintln(e.w, metrics.ASCIIPlot(r.NoTraffic.S1, 100, 10))
			fmt.Fprintln(e.w, metrics.ASCIIPlot(r.WithTraffic.S1, 100, 10))
		}
		e.dumpSeries(r.NoTraffic.S1, r.WithTraffic.S1)
		return nil, nil
	}},
	{"fig5", true, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunFigure5(e.opt)
		fmt.Fprintln(e.w, r.Render())
		e.dumpSeries(r.NoTraffic.S1, r.NoTraffic.S2)
		return nil, nil
	}},
	{"fig6", true, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunFigure6(e.opt)
		fmt.Fprintln(e.w, r.Render())
		if e.plot {
			fmt.Fprintln(e.w, metrics.ASCIIPlot(r.Combined.S1, 100, 10))
		}
		e.dumpSeries(r.Combined.S1, r.Combined.S2)
		return nil, nil
	}},
	{"fig7", true, func(e *env) ([]metrics.Check, error) {
		fmt.Fprintln(e.w, experiments.RunFigure7(e.opt).Render())
		return nil, nil
	}},
	{"table1", true, func(e *env) ([]metrics.Check, error) {
		fmt.Fprintln(e.w, experiments.RunTable1(e.opt).Render())
		return nil, nil
	}},
	{"table2", true, func(e *env) ([]metrics.Check, error) {
		fmt.Fprintln(e.w, experiments.RunTable2(e.opt).Render())
		return nil, nil
	}},
	{"overload", true, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunOverload(e.opt)
		fmt.Fprint(e.w, r.Render())
		return r.Checks(), nil
	}},
	{"slo", true, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunSLO(e.opt)
		fmt.Fprint(e.w, r.Render())
		return r.Checks(), nil
	}},
	{"ablations", true, func(e *env) ([]metrics.Check, error) {
		return e.printChecks(mechanismTitle, experiments.Ablations(e.opt)), nil
	}},
	{"verify", false, func(e *env) ([]metrics.Check, error) {
		return e.printChecks(paperTitle, experiments.Verify(e.opt)), nil
	}},
	{"audit", false, func(e *env) ([]metrics.Check, error) {
		return slices.Concat(
			e.printChecks(paperTitle, experiments.Verify(e.opt)),
			e.printChecks(mechanismTitle, experiments.Ablations(e.opt)),
			e.printChecks(extensionTitle, experiments.Extensions(e.opt))), nil
	}},
	{"failover", false, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunFailover(e.opt, false)
		fmt.Fprint(e.w, r.Render())
		return r.Checks(), nil
	}},
	{"failover-recover", false, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunFailover(e.opt, true)
		fmt.Fprint(e.w, r.Render())
		return r.Checks(), nil
	}},
	{"trace", false, runTrace},
	{"topo-diffserv", false, func(e *env) ([]metrics.Check, error) {
		sys := experiments.DiffServTopology(1)
		defer sys.Close()
		fmt.Fprint(e.w, dumpTopology(sys))
		return nil, nil
	}},
	{"topo-reservation", false, func(e *env) ([]metrics.Check, error) {
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

	// chaos is a soak over real TCP with fault injection.
	{"chaos", false, func(e *env) ([]metrics.Check, error) {
		rep, err := chaos.RunSoak(chaos.SoakConfig{
			Seed:     e.opt.Seed,
			Requests: e.requests,
			Log:      func(f string, a ...any) { fmt.Fprintf(e.w, "  "+f+"\n", a...) },
		})
		if err != nil {
			return nil, fmt.Errorf("chaos soak: %w", err)
		}
		fmt.Fprintln(e.w, rep.Render())
		return e.printChecks(chaosTitle, rep.Checks()), nil
	}},
	// obs prices the observability plane: the EF/BE wire load with the
	// full observer stack (sampler + rules + runtime collector + SLO
	// tracker + profiler + live scraper) against an observers-off
	// baseline, whose EF/BE separation is the isolation claim.
	{"obs", false, func(e *env) ([]metrics.Check, error) {
		res, err := runObsBench(e.opt.Duration)
		if err != nil {
			return nil, fmt.Errorf("obs bench: %w", err)
		}
		fmt.Fprintln(e.w, res.Render())
		return e.printChecks(obsTitle, res.Checks()), nil
	}},
	// pubsub runs the event channel under a best-effort flood.
	{"pubsub", false, func(e *env) ([]metrics.Check, error) {
		r := experiments.RunPubSub(e.opt)
		fmt.Fprintln(e.w, r.Render())
		return e.printChecks(pubsubTitle, r.Checks()), nil
	}},
}

// runTrace traces the prio and video scenarios and prints each
// exemplar's span tree, per-layer breakdown and telemetry; a failed
// -json or -jsonl write is an error.
func runTrace(e *env) ([]metrics.Check, error) {
	var f *os.File
	var sink *trace.JSONL
	if e.jsonl != "" {
		var err error
		if f, err = os.Create(e.jsonl); err != nil {
			return nil, err
		}
		sink = trace.NewJSONL(f)
	}
	r := experiments.RunTrace(e.opt, sink)
	fmt.Fprint(e.w, r.Render())
	if f != nil {
		err := sink.Err()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("jsonl export: %w", err)
		}
	}
	if e.json {
		data, err := r.JSON()
		if err == nil {
			err = os.WriteFile("BENCH_trace.json", data, 0o644)
		}
		if err != nil {
			return nil, fmt.Errorf("json: %w", err)
		}
		fmt.Fprintln(e.w, "wrote BENCH_trace.json")
	}
	return r.Checks(), nil
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
	fs.BoolVar(&e.json, "json", false, "with -run trace, write the exemplar traces to BENCH_trace.json")
	fs.StringVar(&e.jsonl, "jsonl", "", "with -run trace, write every span as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	start := time.Now()
	var checks []metrics.Check
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
func (e *env) printChecks(title string, checks []metrics.Check) []metrics.Check {
	fmt.Fprintln(e.w, metrics.RenderChecks(title, checks))
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
