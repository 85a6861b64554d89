package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// Short durations keep the suite fast; shapes are already stable at
// these scales.
var short = Options{Seed: 42, Duration: 20 * time.Second}

func TestFigure2Propagation(t *testing.T) {
	r := RunFigure2(Options{})
	if len(r.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(r.Hops))
	}
	want := []struct {
		host   string
		native int
	}{
		{"client", 16}, {"middle", 128}, {"server", 136},
	}
	for i, w := range want {
		h := r.Hops[i]
		if h.Host != w.host {
			t.Fatalf("hop %d host = %s, want %s", i, h.Host, w.host)
		}
		if h.CORBA != Fig2CORBAPriority {
			t.Errorf("hop %s CORBA priority = %d, want %d", h.Host, h.CORBA, Fig2CORBAPriority)
		}
		if int(h.Native) != w.native {
			t.Errorf("hop %s native priority = %d, want %d (paper figure 2)", h.Host, h.Native, w.native)
		}
		if h.WireDSCP != netsim.DSCPEF {
			t.Errorf("hop %s DSCP = %v, want EF", h.Host, h.WireDSCP)
		}
	}
	if !strings.Contains(r.Render(), "LynxOS") {
		t.Error("render missing hop data")
	}
}

func TestFigure4Shapes(t *testing.T) {
	r := RunFigure4(short)
	// Without congestion: flat low latency, senders indistinguishable.
	if r.NoTraffic.Sum1.Mean > 0.020 || r.NoTraffic.Sum2.Mean > 0.020 {
		t.Fatalf("uncongested latency too high: %v / %v",
			r.NoTraffic.Sum1.MeanDuration(), r.NoTraffic.Sum2.MeanDuration())
	}
	ratio := r.NoTraffic.Sum1.Mean / r.NoTraffic.Sum2.Mean
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("equal-priority senders differ: ratio %.2f", ratio)
	}
	// With congestion: latency rises by orders of magnitude for both,
	// fluctuating into the hundreds of milliseconds or beyond.
	for _, s := range []struct {
		name string
		m    float64
		max  float64
	}{{"sender1", r.WithTraffic.Sum1.Mean, r.WithTraffic.Sum1.Max},
		{"sender2", r.WithTraffic.Sum2.Mean, r.WithTraffic.Sum2.Max}} {
		if s.m < 0.100 {
			t.Errorf("congested %s mean %.3fs, want >= 100ms", s.name, s.m)
		}
		if s.max < 0.5 {
			t.Errorf("congested %s max %.3fs, want >= 500ms", s.name, s.max)
		}
	}
}

func TestFigure5Shapes(t *testing.T) {
	r := RunFigure5(short)
	// CPU load separates the senders by thread priority: the high-
	// priority sender stays flat, the low-priority one inflates.
	if r.NoTraffic.Sum1.Mean > 0.020 {
		t.Fatalf("high-priority sender mean %v under CPU load", r.NoTraffic.Sum1.MeanDuration())
	}
	if r.NoTraffic.Sum2.Mean < 1.3*r.NoTraffic.Sum1.Mean {
		t.Fatalf("low-priority sender (%v) not clearly above high (%v)",
			r.NoTraffic.Sum2.MeanDuration(), r.NoTraffic.Sum1.MeanDuration())
	}
	if r.NoTraffic.Sum2.Max < 0.050 {
		t.Fatalf("low-priority sender max %v, want CPU-load spikes", time.Duration(r.NoTraffic.Sum2.Max*float64(time.Second)))
	}
	// Network congestion defeats thread priorities: both senders become
	// unpredictable and statistically indistinguishable.
	if r.WithTraffic.Sum1.Mean < 0.100 || r.WithTraffic.Sum2.Mean < 0.100 {
		t.Fatalf("congested means %v / %v, want both >= 100ms",
			r.WithTraffic.Sum1.MeanDuration(), r.WithTraffic.Sum2.MeanDuration())
	}
	sep := r.WithTraffic.Sum2.Mean - r.WithTraffic.Sum1.Mean
	if sep > 0.5*r.WithTraffic.Sum1.Mean {
		t.Fatalf("thread priority alone separated senders under congestion (%.3fs vs %.3fs)",
			r.WithTraffic.Sum1.Mean, r.WithTraffic.Sum2.Mean)
	}
}

func TestFigure6Shapes(t *testing.T) {
	f5 := RunFigure5(short)
	f6 := RunFigure6(short)
	c := f6.Combined
	// Combined thread + network priorities restore predictability under
	// the same load that destroyed Figure 5b.
	if c.Sum1.Mean > 0.020 {
		t.Fatalf("sender1 mean %v with DSCP, want low", c.Sum1.MeanDuration())
	}
	if c.Sum1.Mean > 0.05*f5.WithTraffic.Sum1.Mean {
		t.Fatalf("DSCP improvement too small: %v vs %v",
			c.Sum1.MeanDuration(), f5.WithTraffic.Sum1.MeanDuration())
	}
	// The higher-priority sender does better than the lower one.
	if c.Sum1.Mean >= c.Sum2.Mean {
		t.Fatalf("sender1 (%v) not better than sender2 (%v)",
			c.Sum1.MeanDuration(), c.Sum2.MeanDuration())
	}
	// And both senders deliver their full message count (no collapse).
	if c.Sum1.N < 550 || c.Sum2.N < 550 {
		t.Fatalf("message counts %d / %d, want ~600", c.Sum1.N, c.Sum2.N)
	}
}

func TestTable1Shapes(t *testing.T) {
	r := RunTable1(Options{Seed: 42, Duration: 100 * time.Second})
	if len(r.Cases) != 6 {
		t.Fatalf("cases = %d", len(r.Cases))
	}
	byName := map[string]ResvCaseResult{}
	for _, c := range r.Cases {
		byName[c.Name] = c
	}
	noAdapt := byName["No Adaptation"]
	partial := byName["Partial Reservation"]
	full := byName["Full Reservation"]
	filterOnly := byName["No Reservation; Frame Filtering"]
	partialFilter := byName["Partial Reservation; Frame Filtering"]
	fullFilter := byName["Full Reservation; Frame Filtering"]

	// Paper's qualitative ordering of delivery under load.
	if noAdapt.DeliveredUnderLoad > 0.30 {
		t.Errorf("no adaptation delivered %.2f under load, want catastrophic", noAdapt.DeliveredUnderLoad)
	}
	if partial.DeliveredUnderLoad < 0.30 || partial.DeliveredUnderLoad > 0.80 {
		t.Errorf("partial reservation delivered %.2f, want partial (~0.5)", partial.DeliveredUnderLoad)
	}
	if full.DeliveredUnderLoad < 0.99 {
		t.Errorf("full reservation delivered %.2f, want ~1.0", full.DeliveredUnderLoad)
	}
	if filterOnly.DeliveredUnderLoad < 0.6 {
		t.Errorf("filtering alone delivered %.2f, want most frames", filterOnly.DeliveredUnderLoad)
	}
	if partialFilter.DeliveredUnderLoad < 0.95 {
		t.Errorf("partial+filtering delivered %.2f, want ~1.0", partialFilter.DeliveredUnderLoad)
	}
	if fullFilter.DeliveredUnderLoad < 0.99 {
		t.Errorf("full+filtering delivered %.2f, want 1.0", fullFilter.DeliveredUnderLoad)
	}

	// Latency ordering: reservations beat filtering alone, which beats
	// the unmanaged cases.
	if full.LatencyUnderLoad.Mean >= filterOnly.LatencyUnderLoad.Mean {
		t.Errorf("full reservation latency (%v) not below filtering alone (%v)",
			full.LatencyUnderLoad.MeanDuration(), filterOnly.LatencyUnderLoad.MeanDuration())
	}
	if filterOnly.LatencyUnderLoad.Mean >= noAdapt.LatencyUnderLoad.Mean {
		t.Errorf("filtering latency (%v) not below no-adaptation (%v)",
			filterOnly.LatencyUnderLoad.MeanDuration(), noAdapt.LatencyUnderLoad.MeanDuration())
	}
	if partialFilter.LatencyUnderLoad.Mean >= partial.LatencyUnderLoad.Mean {
		t.Errorf("partial+filter latency (%v) not below partial alone (%v)",
			partialFilter.LatencyUnderLoad.MeanDuration(), partial.LatencyUnderLoad.MeanDuration())
	}
	if !strings.Contains(r.Render(), "Full Reservation") {
		t.Error("render missing rows")
	}
}

func TestFigure7Shapes(t *testing.T) {
	r := RunFigure7(Options{Seed: 42, Duration: 100 * time.Second})
	loadLo := int(r.NoAdaptation.LoadStart / time.Second)
	loadHi := int(r.NoAdaptation.LoadEnd / time.Second)
	midLoad := (loadLo + loadHi) / 2

	// No adaptation: full rate sent, almost nothing received mid-load.
	na := r.NoAdaptation
	if na.SentPerSec[midLoad] < 25 {
		t.Fatalf("no-adaptation sent %d at mid-load, want full rate", na.SentPerSec[midLoad])
	}
	if na.RecvPerSec[midLoad] > 10 {
		t.Fatalf("no-adaptation received %d at mid-load, want near zero", na.RecvPerSec[midLoad])
	}
	// Partial + filtering: sent rate drops to the I-frame rate during
	// load and everything sent is delivered.
	pf := r.PartialWithFilter
	if pf.SentPerSec[midLoad] > 11 {
		t.Fatalf("partial+filter sent %d at mid-load, want filtered rate", pf.SentPerSec[midLoad])
	}
	if pf.RecvPerSec[midLoad] < pf.SentPerSec[midLoad]-1 {
		t.Fatalf("partial+filter delivered %d of %d at mid-load",
			pf.RecvPerSec[midLoad], pf.SentPerSec[midLoad])
	}
	// After the load clears, the filter recovers to full rate.
	tail := len(pf.SentPerSec) - 3
	if pf.SentPerSec[tail] < 25 {
		t.Fatalf("partial+filter did not recover: sent %d at t=%d", pf.SentPerSec[tail], tail)
	}
	// Full reservation: unaffected throughout.
	fr := r.FullReservation
	for s := 2; s < len(fr.RecvPerSec)-3; s++ {
		if fr.RecvPerSec[s] < 28 {
			t.Fatalf("full reservation received %d at t=%d, want full rate", fr.RecvPerSec[s], s)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	r := RunTable2(Options{Seed: 42, Duration: 90 * time.Second}) // 15 images
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Load inflates processing time and variance.
		if row.Load.Mean < 1.10*row.NoLoad.Mean {
			t.Errorf("%v: load mean %v not clearly above no-load %v",
				row.Algo, row.Load.MeanDuration(), row.NoLoad.MeanDuration())
		}
		if row.Load.Std <= row.NoLoad.Std {
			t.Errorf("%v: load std %v not above no-load %v",
				row.Algo, row.Load.StdDuration(), row.NoLoad.StdDuration())
		}
		// The reservation restores times comparable to no load and cuts
		// the variance back down.
		if row.Reserve.Mean > 1.10*row.NoLoad.Mean {
			t.Errorf("%v: reserved mean %v not comparable to no-load %v",
				row.Algo, row.Reserve.MeanDuration(), row.NoLoad.MeanDuration())
		}
		if row.Reserve.Std > row.Load.Std {
			t.Errorf("%v: reserved std %v not below load std %v",
				row.Algo, row.Reserve.StdDuration(), row.Load.StdDuration())
		}
	}
	// Kirsch (8 compass masks) is the costliest algorithm.
	if !(r.Rows[0].Algo.String() == "Kirsch" && r.Rows[0].NoLoad.Mean > r.Rows[1].NoLoad.Mean) {
		t.Errorf("Kirsch not the costliest: %+v", r.Rows)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := RunFigure6(Options{Seed: 7, Duration: 10 * time.Second})
	b := RunFigure6(Options{Seed: 7, Duration: 10 * time.Second})
	if a.Combined.Sum1.Mean != b.Combined.Sum1.Mean || a.Combined.Sum2.Std != b.Combined.Sum2.Std {
		t.Fatal("same seed produced different results")
	}
	c := RunFigure6(Options{Seed: 8, Duration: 10 * time.Second})
	if a.Combined.Sum1.Mean == c.Combined.Sum1.Mean && a.Combined.Sum2.Mean == c.Combined.Sum2.Mean {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestFilterLevelUsedDuringLoad(t *testing.T) {
	r := RunFigure7(Options{Seed: 42, Duration: 100 * time.Second})
	if r.PartialWithFilter.FilterTransitions == 0 {
		t.Fatal("filtering case made no filter transitions")
	}
	// The filtered send rate during load must match a known ladder rung:
	// I-frames only (2 fps) or I+P (10 fps), as video's TestFilterRates
	// pins.
	mid := int((r.PartialWithFilter.LoadStart + r.PartialWithFilter.LoadEnd) / 2 / time.Second)
	sent := r.PartialWithFilter.SentPerSec[mid]
	okRates := map[int64]bool{}
	for _, f := range []int64{2, 10} {
		okRates[f] = true
		okRates[f-1] = true
		okRates[f+1] = true
	}
	if !okRates[sent] {
		t.Fatalf("mid-load send rate %d does not match a filter rung", sent)
	}
}

func TestVerifyAllClaimsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checks := Verify(Options{Seed: 42})
	if len(checks) < 14 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("%s — %s: %s", c.Experiment, c.Claim, c.Detail)
		}
	}
	out := RenderChecks("paper claims", checks)
	if !strings.Contains(out, "claims reproduced") {
		t.Fatal("render missing verdict")
	}
}
