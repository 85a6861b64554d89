package rtcorba

import (
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// TestRejectLowestFirstEviction pins the shedding policy: a
// higher-priority arrival at a full lane evicts the lowest-priority
// queued item (with its Shed callback told why) instead of being
// refused.
func TestRejectLowestFirstEviction(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(),
		LaneConfig{Priority: 0, Threads: 1, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	block := func(t *rtos.Thread) { t.Compute(time.Second) }
	var evictedPrio Priority = -1
	var evictedReason ShedReason
	// Fill the queue with priorities 10 and 20.
	for _, p := range []Priority{10, 20} {
		p := p
		ok := tp.Dispatch(Work{Priority: p, Fn: block, Shed: func(r ShedReason) {
			evictedPrio, evictedReason = p, r
		}})
		if !ok {
			t.Fatalf("initial dispatch at priority %d refused", p)
		}
	}
	// An equal-priority arrival must not evict.
	if tp.Dispatch(Work{Priority: 10, Fn: block}) {
		t.Fatal("equal-priority arrival admitted to a full lane")
	}
	// A higher-priority arrival evicts the priority-10 item.
	if !tp.Dispatch(Work{Priority: 30, Fn: block}) {
		t.Fatal("higher-priority arrival refused despite evictable victim")
	}
	if evictedPrio != 10 || evictedReason != ShedEvicted {
		t.Fatalf("evicted priority %d reason %v, want 10 evicted", evictedPrio, evictedReason)
	}
	if tp.ShedEvicted(0) != 1 || tp.Refused(0) != 1 {
		t.Fatalf("shedEvicted=%d refused=%d, want 1/1", tp.ShedEvicted(0), tp.Refused(0))
	}
	k.RunUntil(10 * time.Second)
}

// TestWatermarkAdmissionControl pins the watermark: a flood of
// equal-priority work stabilises at the watermark, while strictly
// higher-priority work is still admitted up to the hard limit.
func TestWatermarkAdmissionControl(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(),
		LaneConfig{Priority: 0, Threads: 1, QueueLimit: 8, HighWatermark: 4})
	if err != nil {
		t.Fatal(err)
	}
	block := func(t *rtos.Thread) { t.Compute(time.Second) }
	admitted := 0
	for i := 0; i < 10; i++ {
		if tp.Dispatch(Work{Priority: 5, Fn: block}) {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("flood admitted %d, want 4 (watermark)", admitted)
	}
	// Higher-priority arrivals pass the watermark gate.
	for i := 0; i < 4; i++ {
		if !tp.Dispatch(Work{Priority: 100, Fn: block}) {
			t.Fatalf("high-priority arrival %d refused below hard limit", i)
		}
	}
	if got := tp.QueueDepth(0); got != 8 {
		t.Fatalf("queue depth = %d, want 8", got)
	}
	k.RunUntil(20 * time.Second)
}

// TestWatermarkValidation rejects a watermark above the hard limit.
func TestWatermarkValidation(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	if _, err := NewThreadPool(h, NewMappingManager(),
		LaneConfig{Priority: 0, Threads: 1, QueueLimit: 4, HighWatermark: 5}); err == nil {
		t.Fatal("watermark above queue limit accepted")
	}
}

// TestDeadlineShedAtDequeue pins the budget check: work whose deadline
// expired while queued is shed (callback, counter) instead of executed.
func TestDeadlineShedAtDequeue(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(), LaneConfig{Priority: 0, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	tp.SetTelemetry(reg)
	ran, shed := 0, 0
	var shedReason ShedReason
	// First item occupies the thread for 100ms; the second has a 10ms
	// deadline and must be shed when the thread frees up at t=100ms.
	tp.Dispatch(Work{Priority: 0, Fn: func(t *rtos.Thread) { t.Compute(100 * time.Millisecond) }})
	tp.Dispatch(Work{
		Priority: 0,
		Deadline: sim.Time(10 * time.Millisecond),
		Fn:       func(t *rtos.Thread) { ran++ },
		Shed:     func(r ShedReason) { shed++; shedReason = r },
	})
	// A third item with a generous deadline still runs.
	ranLate := 0
	tp.Dispatch(Work{
		Priority: 0,
		Deadline: sim.Time(time.Second),
		Fn:       func(t *rtos.Thread) { ranLate++ },
	})
	k.RunUntil(2 * time.Second)
	if ran != 0 || shed != 1 || shedReason != ShedDeadline {
		t.Fatalf("ran=%d shed=%d reason=%v, want 0/1/deadline", ran, shed, shedReason)
	}
	if ranLate != 1 {
		t.Fatal("in-budget work was not executed")
	}
	if tp.ShedDeadline(0) != 1 || tp.Shed(0) != 1 {
		t.Fatalf("ShedDeadline=%d Shed=%d, want 1/1", tp.ShedDeadline(0), tp.Shed(0))
	}
	if got := reg.Counter("pool.shed", telemetry.L("lane", "0"), telemetry.L("reason", "deadline")).Value(); got != 1 {
		t.Fatalf("telemetry pool.shed = %v, want 1", got)
	}
}
