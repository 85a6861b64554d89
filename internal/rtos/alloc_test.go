//go:build !race

package rtos

import (
	"testing"
	"time"
)

// A reserve's replenishment callback is bound once, so once the kernel's
// event heap has its working size a reserve period costs no allocation.
// (The race detector allocates on its own account, so the pin exists
// only in an ordinary build.)
func TestAllocsReservePeriod(t *testing.T) {
	k, h := newTestHost(t, time.Millisecond)
	defer k.Close()
	r, err := h.ResourceKernel().Reserve(time.Millisecond, 10*time.Millisecond, EnforceHard)
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(100 * time.Millisecond) // warm
	before := r.periods
	allocs := testing.AllocsPerRun(100, func() { k.RunFor(10 * time.Millisecond) })
	if got := r.periods - before; got != 101 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d periods replenished, want 101", got)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per reserve period, want 0", allocs)
	}
}
