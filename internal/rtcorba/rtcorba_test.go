package rtcorba

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/sim"
)

func TestLinearMappingEndpoints(t *testing.T) {
	m := LinearMapping{}
	for _, r := range []rtos.PriorityRange{rtos.RangeQNX, rtos.RangeLynxOS, rtos.RangeSolaris, rtos.RangeLinux} {
		lo, ok := m.ToNative(MinPriority, r)
		if !ok || lo != r.Min {
			t.Fatalf("range %v: ToNative(0) = %d, %v", r, lo, ok)
		}
		hi, ok := m.ToNative(MaxPriority, r)
		if !ok || hi != r.Max {
			t.Fatalf("range %v: ToNative(32767) = %d, %v", r, hi, ok)
		}
	}
}

func TestLinearMappingMonotone(t *testing.T) {
	m := LinearMapping{}
	prop := func(a, b uint16, spanSel uint8) bool {
		pa := Priority(a % 32768)
		pb := Priority(b % 32768)
		r := rtos.PriorityRange{Min: 0, Max: rtos.Priority(spanSel%200) + 1}
		na, _ := m.ToNative(pa, r)
		nb, _ := m.ToNative(pb, r)
		if pa <= pb {
			return na <= nb
		}
		return na >= nb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearMappingRoundTripClose(t *testing.T) {
	// ToCORBA(ToNative(p)) must be within one native step of p.
	m := LinearMapping{}
	r := rtos.RangeLynxOS
	step := int(MaxPriority) / (r.Span() - 1)
	for pi := 0; pi <= int(MaxPriority); pi += 1000 {
		p := Priority(pi)
		n, ok := m.ToNative(p, r)
		if !ok {
			t.Fatalf("ToNative(%d) failed", p)
		}
		back, ok := m.ToCORBA(n, r)
		if !ok {
			t.Fatalf("ToCORBA(%d) failed", n)
		}
		diff := int(back) - int(p)
		if diff < 0 {
			diff = -diff
		}
		if diff > step {
			t.Fatalf("round trip %d -> %d -> %d drifts more than one step (%d)", p, n, back, step)
		}
	}
}

func TestLinearMappingRejectsOutOfRange(t *testing.T) {
	m := LinearMapping{}
	if _, ok := m.ToNative(-1, rtos.RangeQNX); ok {
		t.Fatal("negative CORBA priority mapped")
	}
	if _, ok := m.ToCORBA(99, rtos.RangeQNX); ok {
		t.Fatal("out-of-range native priority mapped")
	}
}

func TestStepMapping(t *testing.T) {
	m := StepMapping{Steps: []Step{
		{From: 0, Native: 5},
		{From: 10000, Native: 16},
		{From: 25000, Native: 30},
	}}
	r := rtos.RangeQNX
	cases := []struct {
		p    Priority
		want rtos.Priority
	}{
		{0, 5}, {9999, 5}, {10000, 16}, {24999, 16}, {25000, 30}, {32767, 30},
	}
	for _, c := range cases {
		got, ok := m.ToNative(c.p, r)
		if !ok || got != c.want {
			t.Fatalf("ToNative(%d) = %d, %v; want %d", c.p, got, ok, c.want)
		}
	}
	if back, ok := m.ToCORBA(16, r); !ok || back != 10000 {
		t.Fatalf("ToCORBA(16) = %d, %v", back, ok)
	}
}

func TestMappingManagerInstall(t *testing.T) {
	mm := NewMappingManager()
	if _, ok := mm.mapping.(LinearMapping); !ok {
		t.Fatalf("default mapping = %T", mm.mapping)
	}
	custom := StepMapping{Steps: []Step{{From: 0, Native: 16}}}
	mm.Install(custom)
	n, ok := mm.ToNative(100, rtos.RangeQNX)
	if !ok || n != 16 {
		t.Fatalf("custom mapping: ToNative(100) = %d, %v", n, ok)
	}
	mm.Install(nil)
	if _, ok := mm.mapping.(LinearMapping); !ok {
		t.Fatal("Install(nil) did not restore the default")
	}
}

func TestBandedDSCPMapping(t *testing.T) {
	m := BandedDSCPMapping{Bands: []DSCPBand{
		{From: 0, DSCP: netsim.DSCPBestEffort},
		{From: 5000, DSCP: netsim.DSCPAF11},
		{From: 20000, DSCP: netsim.DSCPEF},
	}}
	cases := []struct {
		p    Priority
		want netsim.DSCP
	}{
		{0, netsim.DSCPBestEffort}, {4999, netsim.DSCPBestEffort},
		{5000, netsim.DSCPAF11}, {19999, netsim.DSCPAF11},
		{20000, netsim.DSCPEF}, {32767, netsim.DSCPEF},
	}
	for _, c := range cases {
		if got := m.ToDSCP(c.p); got != c.want {
			t.Fatalf("ToDSCP(%d) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (BestEffortMapping{}).ToDSCP(32767); got != netsim.DSCPBestEffort {
		t.Fatalf("best effort mapping = %v", got)
	}
}

func TestThreadPoolLaneSelection(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(),
		LaneConfig{Priority: 0, Threads: 1},
		LaneConfig{Priority: 16000, Threads: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	var lane0, lane1 int
	mk := func(counter *int) func(*rtos.Thread) {
		return func(t *rtos.Thread) { *counter++ }
	}
	tp.Dispatch(Work{Priority: 100, Job: JobFunc(mk(&lane0))})
	tp.Dispatch(Work{Priority: 15999, Job: JobFunc(mk(&lane0))})
	tp.Dispatch(Work{Priority: 16000, Job: JobFunc(mk(&lane1))})
	tp.Dispatch(Work{Priority: 32767, Job: JobFunc(mk(&lane1))})
	k.RunUntil(time.Second)
	if lane0 != 2 || lane1 != 2 {
		t.Fatalf("lane work split = %d/%d, want 2/2", lane0, lane1)
	}
	if tp.Stats(0).Served != 2 || tp.Stats(1).Served != 2 {
		t.Fatalf("served = %d/%d", tp.Stats(0).Served, tp.Stats(1).Served)
	}
}

func TestThreadPoolRunsAtRequestPriority(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	mm := NewMappingManager()
	tp, err := NewThreadPool(h, mm, LaneConfig{Priority: 0, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var observed rtos.Priority
	tp.Dispatch(Work{Priority: 32767, Job: JobFunc(func(t *rtos.Thread) {
		observed = t.Priority()
	})})
	k.RunUntil(time.Second)
	want, _ := mm.ToNative(32767, h.Priorities())
	if observed != want {
		t.Fatalf("dispatch ran at native %d, want %d", observed, want)
	}
}

func TestThreadPoolBoundedQueueRefuses(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(),
		LaneConfig{Priority: 0, Threads: 1, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	block := func(t *rtos.Thread) { t.Compute(time.Second) }
	// Queue starts draining only when the kernel runs; all Dispatches
	// here land in the queue.
	accepted := 0
	for i := 0; i < 5; i++ {
		if tp.Dispatch(Work{Priority: 0, Job: JobFunc(block)}) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2 (bounded queue)", accepted)
	}
	if tp.Stats(0).Refused != 3 {
		t.Fatalf("refused = %d, want 3", tp.Stats(0).Refused)
	}
	k.RunUntil(10 * time.Second)
}

func TestThreadPoolValidation(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	mm := NewMappingManager()
	if _, err := NewThreadPool(h, mm); err == nil {
		t.Fatal("empty lane list accepted")
	}
	if _, err := NewThreadPool(h, mm, LaneConfig{Priority: 5, Threads: 0}); err == nil {
		t.Fatal("zero-thread lane accepted")
	}
	if _, err := NewThreadPool(h, mm,
		LaneConfig{Priority: 10, Threads: 1},
		LaneConfig{Priority: 10, Threads: 1}); err == nil {
		t.Fatal("non-ascending lanes accepted")
	}
}

func TestHighPriorityLaneNotBlockedByLow(t *testing.T) {
	// One slow low-priority request must not delay a high-priority
	// request served by a different lane.
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(),
		LaneConfig{Priority: 0, Threads: 1},
		LaneConfig{Priority: 20000, Threads: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	var highDone sim.Time
	tp.Dispatch(Work{Priority: 0, Job: JobFunc(func(t *rtos.Thread) { t.Compute(500 * time.Millisecond) })})
	tp.Dispatch(Work{Priority: 25000, Job: JobFunc(func(t *rtos.Thread) {
		t.Compute(time.Millisecond)
		highDone = t.Now()
	})})
	k.RunUntil(2 * time.Second)
	if highDone == 0 || highDone > 10*time.Millisecond {
		t.Fatalf("high-priority work finished at %v; blocked behind low lane", highDone)
	}
}
