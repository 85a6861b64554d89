package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Check is one reproduction self-check: a qualitative claim from the
// paper's evaluation, tested against a fresh run.
type Check struct {
	Experiment string
	Claim      string
	OK         bool
	Detail     string
}

// Verify reruns every experiment at a reduced scale and tests the
// paper's qualitative claims against the results — the repository's
// one-command reproduction audit.
func Verify(opt Options) []Check {
	if opt.Duration == 0 {
		opt.Duration = 60 * time.Second
	}
	var checks []Check
	add := func(experiment, claim string, ok bool, detail string, args ...any) {
		checks = append(checks, Check{
			Experiment: experiment,
			Claim:      claim,
			OK:         ok,
			Detail:     fmt.Sprintf(detail, args...),
		})
	}

	// Every experiment's cases run side by side; each owns its kernel,
	// seed and network, so the results do not depend on the order they
	// finish in. Figures 4-6 run at 20 s; Table 2 with enough images
	// for the burst-load averages to settle.
	prioOpt := opt
	prioOpt.Duration = 20 * time.Second
	t2Opt := opt
	if t2Opt.Duration < 150*time.Second {
		t2Opt.Duration = 150 * time.Second // 25 images
	}
	c2, fig2 := figure2(opt)
	c4, fig4 := figure4(prioOpt)
	c5, fig5 := figure5(prioOpt)
	c6, fig6 := figure6(prioOpt)
	ct1, tab1 := table1(opt)
	ct2, tab2 := table2(t2Opt)
	runCases(slices.Concat(c2, c4, c5, c6, ct1, ct2))

	// Figure 2.
	f2 := fig2()
	okF2 := len(f2.Hops) == 3 &&
		f2.Hops[0].Native == 16 && f2.Hops[1].Native == 128 && f2.Hops[2].Native == 136
	add("Figure 2", "CORBA priority 100 maps to QNX 16 / LynxOS 128 / Solaris 136 end to end",
		okF2, "natives: %v", hopNatives(f2))

	// Figures 4-6.
	f4 := fig4()
	add("Figure 4", "without congestion latency is flat low milliseconds",
		f4.NoTraffic.Sum1.Mean < 0.020 && f4.NoTraffic.Sum2.Mean < 0.020,
		"means %.1f / %.1f ms", f4.NoTraffic.Sum1.Mean*1e3, f4.NoTraffic.Sum2.Mean*1e3)
	add("Figure 4", "congestion makes latency fluctuate to a second and beyond",
		f4.WithTraffic.Sum1.Max > 0.5 && f4.WithTraffic.Sum1.Mean > 0.1,
		"mean %.0f ms max %.0f ms", f4.WithTraffic.Sum1.Mean*1e3, f4.WithTraffic.Sum1.Max*1e3)

	f5 := fig5()
	add("Figure 5", "thread priority separates senders under CPU load",
		f5.NoTraffic.Sum2.Mean > 1.3*f5.NoTraffic.Sum1.Mean,
		"high %.1f ms vs low %.1f ms", f5.NoTraffic.Sum1.Mean*1e3, f5.NoTraffic.Sum2.Mean*1e3)
	add("Figure 5", "thread priority alone cannot hold QoS under network congestion",
		f5.WithTraffic.Sum1.Mean > 0.1 &&
			f5.WithTraffic.Sum2.Mean-f5.WithTraffic.Sum1.Mean < 0.5*f5.WithTraffic.Sum1.Mean,
		"means %.0f / %.0f ms", f5.WithTraffic.Sum1.Mean*1e3, f5.WithTraffic.Sum2.Mean*1e3)

	f6 := fig6()
	add("Figure 6", "thread + network priorities restore predictability under combined load",
		f6.Combined.Sum1.Mean < 0.020 && f6.Combined.Sum1.Mean < 0.05*f5.WithTraffic.Sum1.Mean,
		"sender1 mean %.1f ms (vs %.0f ms unmanaged)",
		f6.Combined.Sum1.Mean*1e3, f5.WithTraffic.Sum1.Mean*1e3)
	add("Figure 6", "the higher-priority sender does better than the lower",
		f6.Combined.Sum1.Mean < f6.Combined.Sum2.Mean,
		"%.1f vs %.1f ms", f6.Combined.Sum1.Mean*1e3, f6.Combined.Sum2.Mean*1e3)

	// Table 1 (also covers Figure 7's claims).
	t1 := tab1()
	byName := map[string]ResvCaseResult{}
	for _, c := range t1.Cases {
		byName[c.Name] = c
	}
	add("Table 1", "no adaptation loses almost all frames under load",
		byName["No Adaptation"].DeliveredUnderLoad < 0.30,
		"delivered %.1f%%", 100*byName["No Adaptation"].DeliveredUnderLoad)
	add("Table 1", "a partial reservation delivers part of the stream at high latency",
		byName["Partial Reservation"].DeliveredUnderLoad > 0.3 &&
			byName["Partial Reservation"].DeliveredUnderLoad < 0.8 &&
			byName["Partial Reservation"].LatencyUnderLoad.Mean > 0.3,
		"delivered %.1f%% at %.0f ms", 100*byName["Partial Reservation"].DeliveredUnderLoad,
		byName["Partial Reservation"].LatencyUnderLoad.Mean*1e3)
	add("Table 1", "a full reservation delivers everything",
		byName["Full Reservation"].DeliveredUnderLoad > 0.99,
		"delivered %.1f%%", 100*byName["Full Reservation"].DeliveredUnderLoad)
	add("Table 1", "frame filtering rescues the partial reservation (all I-frames delivered)",
		byName["Partial Reservation; Frame Filtering"].DeliveredUnderLoad > 0.95,
		"delivered %.1f%%", 100*byName["Partial Reservation; Frame Filtering"].DeliveredUnderLoad)
	add("Table 1", "latency falls monotonically from unmanaged to fully managed",
		byName["Full Reservation; Frame Filtering"].LatencyUnderLoad.Mean <
			byName["No Reservation; Frame Filtering"].LatencyUnderLoad.Mean &&
			byName["No Reservation; Frame Filtering"].LatencyUnderLoad.Mean <
				byName["No Adaptation"].LatencyUnderLoad.Mean,
		"%.0f < %.0f < %.0f ms",
		byName["Full Reservation; Frame Filtering"].LatencyUnderLoad.Mean*1e3,
		byName["No Reservation; Frame Filtering"].LatencyUnderLoad.Mean*1e3,
		byName["No Adaptation"].LatencyUnderLoad.Mean*1e3)

	// Table 2.
	t2 := tab2()
	allInflate, allRestore := true, true
	for _, row := range t2.Rows {
		if row.Load.Mean < 1.10*row.NoLoad.Mean {
			allInflate = false
		}
		if row.Reserve.Mean > 1.10*row.NoLoad.Mean || row.Reserve.Std > row.Load.Std {
			allRestore = false
		}
	}
	add("Table 2", "competing CPU load inflates all edge-detector times",
		allInflate, "kirsch %.0f -> %.0f ms", t2.Rows[0].NoLoad.Mean*1e3, t2.Rows[0].Load.Mean*1e3)
	add("Table 2", "a CPU reservation restores near-no-load times with low variance",
		allRestore, "kirsch reserved %.0f ms (std %.1f ms)",
		t2.Rows[0].Reserve.Mean*1e3, t2.Rows[0].Reserve.Std*1e3)

	return checks
}

func hopNatives(f Figure2Result) []int {
	out := make([]int, 0, len(f.Hops))
	for _, h := range f.Hops {
		out = append(out, int(h.Native))
	}
	return out
}

// RenderChecks prints checks as a table under title plus a verdict
// line.
func RenderChecks(title string, checks []Check) string {
	tb := metrics.NewTable(title, "Experiment", "Claim", "Result", "Measured")
	pass := 0
	for _, c := range checks {
		verdict := "FAIL"
		if c.OK {
			verdict = "ok"
			pass++
		}
		tb.AddRow(c.Experiment, c.Claim, verdict, c.Detail)
	}
	var b strings.Builder
	b.WriteString(tb.Render())
	fmt.Fprintf(&b, "\n%d/%d claims reproduced\n", pass, len(checks))
	return b.String()
}
