//go:build !race

package sim

import (
	"testing"
	"time"
)

// The race detector allocates on its own account, so these pins exist
// only in an ordinary build.

func TestAllocsScheduleAndStep(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 64; i++ { // grow the heap and the slot table once
		k.After(time.Duration(i), fn)
	}
	k.Run()
	if n := testing.AllocsPerRun(1000, func() {
		k.After(time.Microsecond, fn)
		k.After(time.Microsecond, fn).Cancel()
		k.Step()
	}); n != 0 {
		t.Fatalf("After + Cancel + Step allocate %v times per round, want 0", n)
	}
}

func TestAllocsSleepAndBlock(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	sig := NewSignal()
	q := NewQueue[int]()
	laps := 0
	k.Go("sleeper", func(p *Proc) {
		for ; ; laps++ {
			p.Sleep(time.Microsecond)
			p.Yield()
			sig.WaitTimeout(p, time.Microsecond) // times out
			q.GetTimeout(p, time.Hour)           // woken by the Put below
		}
	})
	round := func() {
		k.RunFor(3 * time.Microsecond)
		q.Put(1)
		k.RunFor(0)
	}
	round()
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("a Sleep, a Yield, a timed-out wait and a queue hand-off allocate %v times per round, want 0", n)
	}
	if laps < 1000 {
		t.Fatalf("the process completed %d laps in 1000 rounds; the rounds are not driving it", laps)
	}
}
