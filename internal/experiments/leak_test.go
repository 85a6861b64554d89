//go:build !race

package experiments

import (
	"runtime"
	"testing"
)

// Back-to-back Verify passes — what the sim_paper benchmark and a seed
// sweep do — hold no more goroutines and no more heap after the third
// pass than after the first, and each pass leaves no goroutine behind:
// not a scenario's, and not one of the case runner's workers, which run
// here at least four wide whatever the host. (Heap readings under the
// race detector's shadow memory mean little, so the check exists only
// in an ordinary build.)
func TestLeakVerifyPassesStayFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	idle := runtime.NumGoroutine()
	measure := func() (goroutines int, heap uint64) {
		Verify(Options{Seed: 1})
		goroutines = settledGoroutines(idle)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return goroutines, m.HeapAlloc
	}
	g1, h1 := measure()
	measure()
	g3, h3 := measure()
	if g1 != idle || g3 != idle {
		t.Errorf("%d goroutines after the first pass, %d after the third, %d before any", g1, g3, idle)
	}
	// One leaked scenario is several hundred KB; noise is a few KB.
	if h3 > h1+256<<10 {
		t.Errorf("live heap grew from %d to %d bytes over two passes", h1, h3)
	}
}
