package experiments

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// checkNoLeakedGoroutines fails t if more goroutines run than before,
// once exiting ones have had up to 3 s to finish, and dumps every stack.
// Fewer is no failure: a goroutine counted in before, one an earlier
// test started that was still on its way out, may exit meanwhile, and a
// leak never makes the count fall.
func checkNoLeakedGoroutines(t *testing.T, before int, when string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d goroutines %s, %d before\n%s", n, when, before, buf[:runtime.Stack(buf, true)])
	}
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
		{"Extensions", func() { Extensions(Options{Seed: 3}) }},
	}
	for _, r := range runners {
		before := runtime.NumGoroutine()
		r.run()
		checkNoLeakedGoroutines(t, before, "after "+r.name+" returned")
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
		run  func() []metrics.Check
	}{
		{"testdata/verify_seed1.golden", func() []metrics.Check { return Verify(Options{Seed: 1}) }},
		{"testdata/verify_seed7.golden", func() []metrics.Check { return Verify(Options{Seed: 7}) }},
		{"testdata/ablations_seed42_10s.golden", func() []metrics.Check { return Ablations(Options{Seed: 42, Duration: 10 * time.Second}) }},
		{"testdata/ablations_seed7.golden", func() []metrics.Check { return Ablations(Options{Seed: 7}) }},
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
