package rtos

import (
	"time"
)

// StartBurstLoad spawns a thread producing variable, unsustained load:
// exponentially distributed busy bursts separated by exponentially
// distributed idle gaps (means meanBusy and meanIdle). This reproduces
// the paper's Table 2 observation that the competing load "was variable
// and not sustained", which is what inflates the edge detectors' variance.
// The thread runs until the scenario ends.
func StartBurstLoad(h *Host, name string, prio Priority, meanBusy, meanIdle time.Duration) {
	rng := h.k.Rand()
	h.Spawn(name, prio, func(t *Thread) {
		for {
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
}
