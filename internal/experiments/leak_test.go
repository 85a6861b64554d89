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
// here at least four wide whatever the host. A pass allocates at most
// 18 MB: its request frames cycle through a few buffers per case (DESIGN
// §12 rule 1) instead of costing a new one per message, and a packet's
// transport header rides in the packet. The heap bound shows those
// buffers die with their case.
// (Heap readings under the race detector's shadow memory mean little, so
// the check exists only in an ordinary build.)
func TestLeakVerifyPassesStayFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	idle := runtime.NumGoroutine()
	measure := func(pass string) (heap, allocated uint64) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		start := m.TotalAlloc
		Verify(Options{Seed: 1})
		runtime.ReadMemStats(&m)
		allocated = m.TotalAlloc - start
		checkNoLeakedGoroutines(t, idle, "after the "+pass+" pass")
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc, allocated
	}
	h1, _ := measure("first")
	measure("second")
	h3, a3 := measure("third")
	// One leaked scenario is several hundred KB; noise is a few KB.
	if h3 > h1+256<<10 {
		t.Errorf("live heap grew from %d to %d bytes over two passes", h1, h3)
	}
	if a3 > 18e6 {
		t.Errorf("the third pass allocated %d bytes, want at most 18 MB", a3)
	} else {
		t.Logf("the third pass allocated %d bytes", a3)
	}
}
