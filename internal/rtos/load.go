package rtos

import (
	"time"
)

// LoadGen is a handle to a synthetic CPU load generator. Generators model
// the "competing CPU load" the paper introduces in the Figure 5 and
// Table 2 experiments.
type LoadGen struct {
	stop bool
	t    *Thread
}

// Stop makes the generator exit after its current burst.
func (g *LoadGen) Stop() { g.stop = true }

// StartBusyLoop spawns a thread that consumes CPU continuously at prio
// until stopped. It computes in small slices so scheduling decisions and
// accounting stay responsive.
func StartBusyLoop(h *Host, name string, prio Priority) *LoadGen {
	g := &LoadGen{}
	g.t = h.Spawn(name, prio, func(t *Thread) {
		for !g.stop {
			t.Compute(time.Millisecond)
		}
	})
	return g
}

// StartPeriodicLoad spawns a thread that consumes busy of CPU at the
// start of every period — a classic periodic real-time task.
func StartPeriodicLoad(h *Host, name string, prio Priority, busy, period time.Duration) *LoadGen {
	g := &LoadGen{}
	g.t = h.Spawn(name, prio, func(t *Thread) {
		for !g.stop {
			start := t.Now()
			t.Compute(busy)
			if rest := period - (t.Now() - start); rest > 0 {
				t.Sleep(rest)
			}
		}
	})
	return g
}

// StartBurstLoad spawns a thread producing variable, unsustained load:
// exponentially distributed busy bursts separated by exponentially
// distributed idle gaps (means meanBusy and meanIdle). This reproduces
// the paper's Table 2 observation that the competing load "was variable
// and not sustained", which is what inflates the edge detectors' variance.
func StartBurstLoad(h *Host, name string, prio Priority, meanBusy, meanIdle time.Duration) *LoadGen {
	g := &LoadGen{}
	rng := h.k.Rand()
	g.t = h.Spawn(name, prio, func(t *Thread) {
		for !g.stop {
			busy := time.Duration(rng.ExpFloat64() * float64(meanBusy))
			idle := time.Duration(rng.ExpFloat64() * float64(meanIdle))
			if busy > 0 {
				t.Compute(busy)
			}
			if idle > 0 {
				t.Sleep(idle)
			}
		}
	})
	return g
}
