//go:build !race

package rtcorba

import (
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/sim"
)

// Settling a work item with no bus or tracer attached costs no
// allocation: a refusal at a full lane, and an eviction that admits the
// arrival in the victim's place. (The race detector allocates on its own
// account, so the pin exists only in an ordinary build.)
func TestAllocsSettleWithoutBus(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(), LaneConfig{Priority: 0, Threads: 1, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	busy := func(t *rtos.Thread) { t.Compute(time.Hour) }
	tp.Dispatch(Work{Fn: busy})
	k.RunFor(time.Millisecond)  // the thread is running it
	tp.Dispatch(Work{Fn: busy}) // the queue is full
	const rounds = 100
	refused := testing.AllocsPerRun(rounds, func() {
		if tp.Dispatch(Work{Fn: busy}) {
			t.Fatal("admitted to a full lane with no lower-priority victim")
		}
	})
	prio := Priority(0)
	evicted := testing.AllocsPerRun(rounds, func() {
		prio++
		if !tp.Dispatch(Work{Priority: prio, Fn: busy}) {
			t.Fatal("refused despite an evictable victim")
		}
	})
	if refused != 0 || evicted != 0 {
		t.Errorf("allocations per refusal %v, per eviction %v; want 0", refused, evicted)
	}
	if st := tp.Stats(0); st.Refused != rounds+1 || st.Evicted != rounds+1 {
		t.Errorf("stats %+v, want %d refused and %d evicted", st, rounds+1, rounds+1)
	}
}
