package rtos

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func newTestHost(t *testing.T, quantum time.Duration) (*sim.Kernel, *Host) {
	t.Helper()
	k := sim.NewKernel(1)
	h := NewHost(k, "h", HostConfig{Quantum: quantum})
	return k, h
}

func TestComputeUncontended(t *testing.T) {
	k, h := newTestHost(t, 0)
	var took time.Duration
	h.Spawn("a", 10, func(th *Thread) {
		start := th.Now()
		th.Compute(50 * time.Millisecond)
		took = th.Now() - start
	})
	k.Run()
	if took != 50*time.Millisecond {
		t.Fatalf("uncontended compute took %v, want 50ms", took)
	}
}

func TestEqualPriorityRoundRobinShares(t *testing.T) {
	k, h := newTestHost(t, time.Millisecond)
	var doneA, doneB sim.Time
	h.Spawn("a", 10, func(th *Thread) {
		th.Compute(50 * time.Millisecond)
		doneA = th.Now()
	})
	h.Spawn("b", 10, func(th *Thread) {
		th.Compute(50 * time.Millisecond)
		doneB = th.Now()
	})
	k.Run()
	// Two equal-priority 50ms jobs sharing one CPU round-robin must both
	// finish near 100ms (within one quantum of each other).
	if doneA < 99*time.Millisecond || doneB < 99*time.Millisecond {
		t.Fatalf("round robin did not share: a=%v b=%v", doneA, doneB)
	}
	diff := doneA - doneB
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("finish-time gap %v exceeds one quantum", diff)
	}
}

func TestFIFONoQuantumRunsToCompletion(t *testing.T) {
	k, h := newTestHost(t, 0)
	var doneA, doneB sim.Time
	h.Spawn("a", 10, func(th *Thread) {
		th.Compute(50 * time.Millisecond)
		doneA = th.Now()
	})
	h.Spawn("b", 10, func(th *Thread) {
		th.Compute(50 * time.Millisecond)
		doneB = th.Now()
	})
	k.Run()
	if doneA != 50*time.Millisecond {
		t.Fatalf("FIFO first job finished at %v, want 50ms", doneA)
	}
	if doneB != 100*time.Millisecond {
		t.Fatalf("FIFO second job finished at %v, want 100ms", doneB)
	}
}

func TestPreemption(t *testing.T) {
	k, h := newTestHost(t, 0)
	var lowDone, highDone sim.Time
	h.Spawn("low", 5, func(th *Thread) {
		th.Compute(100 * time.Millisecond)
		lowDone = th.Now()
	})
	h.Spawn("high", 20, func(th *Thread) {
		th.Sleep(10 * time.Millisecond)
		th.Compute(20 * time.Millisecond)
		highDone = th.Now()
	})
	k.Run()
	if highDone != 30*time.Millisecond {
		t.Fatalf("high-priority thread finished at %v, want 30ms (instant preemption)", highDone)
	}
	if lowDone != 120*time.Millisecond {
		t.Fatalf("low-priority thread finished at %v, want 120ms", lowDone)
	}
}

func TestSetPriorityReschedules(t *testing.T) {
	k, h := newTestHost(t, 0)
	var aDone sim.Time
	var b *Thread
	h.Spawn("a", 10, func(th *Thread) {
		th.Compute(40 * time.Millisecond)
		aDone = th.Now()
	})
	b = h.Spawn("b", 5, func(th *Thread) {
		th.Compute(40 * time.Millisecond)
	})
	k.After(10*time.Millisecond, func() { b.SetPriority(20) })
	k.Run()
	// b is boosted above a at t=10ms and then runs its full 40ms first.
	if aDone != 80*time.Millisecond {
		t.Fatalf("a finished at %v, want 80ms after boost preemption", aDone)
	}
}

func TestPriorityClampedToHostRange(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "qnx", HostConfig{Priorities: RangeQNX})
	th := h.Spawn("x", 500, func(t *Thread) {})
	if th.Priority() != RangeQNX.Max {
		t.Fatalf("priority = %d, want clamped to %d", th.Priority(), RangeQNX.Max)
	}
	th.SetPriority(-5)
	if th.Priority() != RangeQNX.Min {
		t.Fatalf("priority = %d, want clamped to %d", th.Priority(), RangeQNX.Min)
	}
	k.Run()
}

func TestReservationGuaranteesBudgetUnderLoad(t *testing.T) {
	k, h := newTestHost(t, time.Millisecond)
	// Saturating load at the highest normal priority.
	busyLoop(h, "load", 99)

	r, err := h.ResourceKernel().Reserve(20*time.Millisecond, 100*time.Millisecond, EnforceHard)
	if err != nil {
		t.Fatal(err)
	}
	var progress []sim.Time
	h.Spawn("reserved", 1, func(th *Thread) {
		r.Attach(th)
		for i := 0; i < 5; i++ {
			th.Compute(20 * time.Millisecond)
			progress = append(progress, th.Now())
		}
	})
	k.RunUntil(time.Second)
	if len(progress) != 5 {
		t.Fatalf("reserved thread completed %d/5 quanta under saturating load", len(progress))
	}
	// Each 20ms chunk must complete within its 100ms period.
	for i, at := range progress {
		deadline := time.Duration(i+1) * 100 * time.Millisecond
		if at > deadline {
			t.Fatalf("chunk %d finished at %v, after its period deadline %v", i, at, deadline)
		}
	}
}

func TestHardEnforcementDemotesOverrun(t *testing.T) {
	k, h := newTestHost(t, time.Millisecond)
	busyLoop(h, "load", 50)

	r, err := h.ResourceKernel().Reserve(10*time.Millisecond, 100*time.Millisecond, EnforceHard)
	if err != nil {
		t.Fatal(err)
	}
	var done sim.Time
	h.Spawn("greedy", 1, func(th *Thread) {
		r.Attach(th)
		// Demands 30ms per 100ms but is only entitled to 10ms; with hard
		// enforcement and a saturating higher-priority load it makes
		// exactly 10ms of progress per period: 3 periods to finish.
		th.Compute(30 * time.Millisecond)
		done = th.Now()
	})
	k.RunUntil(2 * time.Second)
	if done == 0 {
		t.Fatal("greedy reserved thread never finished")
	}
	if done < 200*time.Millisecond || done > 250*time.Millisecond {
		t.Fatalf("greedy thread finished at %v, want early in period 3 (200..250ms)", done)
	}
	if r.overruns < 2 {
		t.Fatalf("overruns = %d, want >= 2", r.overruns)
	}
}

func TestSoftEnforcementKeepsRunning(t *testing.T) {
	k, h := newTestHost(t, 0)
	// No competing load: a soft reserve that depletes keeps computing at
	// base priority, so 30ms of demand finishes in 30ms.
	r, err := h.ResourceKernel().Reserve(10*time.Millisecond, 100*time.Millisecond, EnforceSoft)
	if err != nil {
		t.Fatal(err)
	}
	var done sim.Time
	h.Spawn("soft", 10, func(th *Thread) {
		r.Attach(th)
		th.Compute(30 * time.Millisecond)
		done = th.Now()
	})
	k.RunUntil(time.Second)
	if done != 30*time.Millisecond {
		t.Fatalf("soft-enforced thread finished at %v, want 30ms", done)
	}
}

func TestAdmissionControl(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "h", HostConfig{ReservationCap: 0.5})
	rk := h.ResourceKernel()
	if _, err := rk.Reserve(30*time.Millisecond, 100*time.Millisecond, EnforceHard); err != nil {
		t.Fatalf("first reservation rejected: %v", err)
	}
	if _, err := rk.Reserve(30*time.Millisecond, 100*time.Millisecond, EnforceHard); err == nil {
		t.Fatal("over-cap reservation admitted")
	}
	if u := rk.Utilization(); u != 0.3 {
		t.Fatalf("utilization = %v, want 0.3", u)
	}
}

func TestReservationInvalidArgs(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "h", HostConfig{})
	rk := h.ResourceKernel()
	cases := []struct{ c, p time.Duration }{
		{0, time.Second},
		{time.Second, 0},
		{2 * time.Second, time.Second},
		{-time.Second, time.Second},
	}
	for _, tc := range cases {
		if _, err := rk.Reserve(tc.c, tc.p, EnforceHard); err == nil {
			t.Errorf("Reserve(%v, %v) accepted, want error", tc.c, tc.p)
		}
	}
}

func TestReserveCancelFreesCapacityAndThreads(t *testing.T) {
	k, h := newTestHost(t, 0)
	rk := h.ResourceKernel()
	r, err := rk.Reserve(10*time.Millisecond, 100*time.Millisecond, EnforceHard)
	if err != nil {
		t.Fatal(err)
	}
	var done sim.Time
	h.Spawn("w", 10, func(th *Thread) {
		r.Attach(th)
		th.Sleep(time.Millisecond)
		r.Cancel()
		if th.Reserve() != nil {
			t.Error("thread still attached after Cancel")
		}
		// Must run as an ordinary thread, not background.
		th.Compute(5 * time.Millisecond)
		done = th.Now()
	})
	k.RunUntil(time.Second)
	if done != 6*time.Millisecond {
		t.Fatalf("post-cancel compute finished at %v, want 6ms", done)
	}
	if u := rk.Utilization(); u != 0 {
		t.Fatalf("utilization after cancel = %v, want 0", u)
	}
}

func TestMutexPriorityInheritance(t *testing.T) {
	k, h := newTestHost(t, 0)
	m := NewMutex(h)
	var highLockAt, highGotAt sim.Time

	// Low-priority thread takes the lock, then a medium-priority hog
	// arrives; without inheritance the high-priority waiter would be
	// inverted behind the hog for the hog's full 100ms.
	h.Spawn("low", 1, func(th *Thread) {
		m.Lock(th)
		th.Compute(20 * time.Millisecond)
		m.Unlock(th)
	})
	h.Spawn("med", 10, func(th *Thread) {
		th.Sleep(5 * time.Millisecond)
		th.Compute(100 * time.Millisecond)
	})
	h.Spawn("high", 20, func(th *Thread) {
		th.Sleep(6 * time.Millisecond)
		highLockAt = th.Now()
		m.Lock(th)
		highGotAt = th.Now()
		m.Unlock(th)
	})
	k.Run()
	waited := highGotAt - highLockAt
	// With PI the low thread finishes its remaining ~14ms critical
	// section at priority 20; without PI the wait would exceed 100ms.
	if waited > 20*time.Millisecond {
		t.Fatalf("high waited %v for the lock; priority inheritance failed", waited)
	}
}

func TestMutexGrantsByPriority(t *testing.T) {
	k, h := newTestHost(t, 0)
	m := NewMutex(h)
	var order []string
	h.Spawn("owner", 30, func(th *Thread) {
		m.Lock(th)
		th.Sleep(10 * time.Millisecond)
		m.Unlock(th)
	})
	for _, w := range []struct {
		name string
		prio Priority
	}{{"lowWaiter", 5}, {"highWaiter", 25}} {
		w := w
		h.Spawn(w.name, w.prio, func(th *Thread) {
			th.Sleep(time.Millisecond)
			m.Lock(th)
			order = append(order, w.name)
			m.Unlock(th)
		})
	}
	k.Run()
	if len(order) != 2 || order[0] != "highWaiter" {
		t.Fatalf("grant order = %v, want highWaiter first", order)
	}
}

func TestBurstLoadIsVariable(t *testing.T) {
	k, h := newTestHost(t, time.Millisecond)
	tr := trace(h.cpu)
	StartBurstLoad(h, "burst", 10, 10*time.Millisecond, 10*time.Millisecond)
	k.RunUntil(2 * time.Second)
	u := float64(tr.totalFor("burst")) / float64(2*time.Second)
	if u < 0.2 || u > 0.8 {
		t.Fatalf("burst load utilization = %v, want mid-range (~0.5)", u)
	}
}

func TestComputeCyclesUsesClockRate(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "h", HostConfig{Hz: 2e9})
	var took time.Duration
	h.Spawn("a", 10, func(th *Thread) {
		start := th.Now()
		th.ComputeCycles(2e9) // one second of cycles at 2 GHz = 1s... no: 2e9 cycles / 2e9 Hz = 1s
		took = th.Now() - start
	})
	k.Run()
	if took != time.Second {
		t.Fatalf("2e9 cycles at 2GHz took %v, want 1s", took)
	}
}

// Work conservation: with pending demand the CPU is never idle.
func TestWorkConservation(t *testing.T) {
	k, h := newTestHost(t, time.Millisecond)
	total := 0 * time.Millisecond
	for i := 0; i < 5; i++ {
		d := time.Duration(10*(i+1)) * time.Millisecond
		total += d
		h.Spawn("w", Priority(i), func(th *Thread) { th.Compute(d) })
	}
	k.Run()
	if k.Now() != total {
		t.Fatalf("5 jobs totalling %v finished at %v; CPU idled with work pending", total, k.Now())
	}
}

// busyLoop spawns a thread that consumes CPU at prio for as long as the
// scenario runs, in 1 ms slices so scheduling decisions stay responsive.
func busyLoop(h *Host, name string, prio Priority) {
	h.Spawn(name, prio, func(t *Thread) {
		for {
			t.Compute(time.Millisecond)
		}
	})
}
