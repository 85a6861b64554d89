package experiments

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledGoroutines reads runtime.NumGoroutine once exiting goroutines
// have had a chance to finish exiting.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// No process outlives the scenario that spawned it: every public runner
// that builds a simulated system closes it.
func TestLifecycleRunnersReleaseProcesses(t *testing.T) {
	short := Options{Seed: 3, Duration: 5 * time.Second}
	runners := []struct {
		name string
		run  func()
	}{
		{"RunFigure2", func() { RunFigure2(short) }},
		{"RunFigure4", func() { RunFigure4(short) }},
		{"RunFigure5", func() { RunFigure5(short) }},
		{"RunFigure6", func() { RunFigure6(short) }},
		{"RunFigure7", func() { RunFigure7(Options{Seed: 3, Duration: 20 * time.Second}) }},
		{"RunTable1", func() { RunTable1(Options{Seed: 3, Duration: 20 * time.Second}) }},
		{"RunTable2", func() { RunTable2(Options{Seed: 3, Duration: 12 * time.Second}) }},
		{"Ablations", func() { Ablations(Options{Seed: 3}) }},
		{"RunMonitor", func() { RunMonitor(short) }},
		{"RunOverload", func() { RunOverload(short) }},
		{"RunSLO", func() { RunSLO(short) }},
	}
	for _, r := range runners {
		before := runtime.NumGoroutine()
		r.run()
		// Only an excess is a leak: a goroutine counted in before may
		// exit during the run (seen under -race).
		if n := settledGoroutines(before); n > before {
			t.Errorf("%s: %d goroutines after it returned, %d before", r.name, n, before)
		}
	}
}

// TestGoldenVerifyDetails pins the reproduction's headline numbers: the
// golden files hold the Check.Detail strings of Verify (the 14 paper
// claims) and of Ablations (the 9 mechanism claims), so a refactor of
// the sim plane that moves any of them — a changed event order, one
// more or one fewer draw from the kernel's random stream — fails here.
// Ablations is pinned at seed 42 over 10 s and at seed 7 over each
// scenario's default length.
func TestGoldenVerifyDetails(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, g := range []struct {
		file string
		run  func() []Check
	}{
		{"testdata/verify_seed1.golden", func() []Check { return Verify(Options{Seed: 1}) }},
		{"testdata/verify_seed7.golden", func() []Check { return Verify(Options{Seed: 7}) }},
		{"testdata/ablations_seed42_10s.golden", func() []Check { return Ablations(Options{Seed: 42, Duration: 10 * time.Second}) }},
		{"testdata/ablations_seed7.golden", func() []Check { return Ablations(Options{Seed: 7}) }},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, c := range g.run() {
			got.WriteString(c.Detail + "\n")
		}
		if got.String() != string(want) {
			t.Errorf("details drifted from %s\n got:\n%s\nwant:\n%s", g.file, got.String(), want)
		}
	}
}
