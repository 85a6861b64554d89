package rtos

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTracerRecordsPreemption(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "h", HostConfig{})
	tr := trace(h.cpu)
	h.Spawn("low", 5, func(th *Thread) { th.Compute(30 * time.Millisecond) })
	h.Spawn("high", 20, func(th *Thread) {
		th.Sleep(10 * time.Millisecond)
		th.Compute(10 * time.Millisecond)
	})
	k.Run()
	spans := tr.spans
	// Expected timeline: low [0,10), high [10,20), low [20,40).
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	want := []struct {
		name       string
		start, end time.Duration
	}{
		{"low", 0, 10 * time.Millisecond},
		{"high", 10 * time.Millisecond, 20 * time.Millisecond},
		{"low", 20 * time.Millisecond, 40 * time.Millisecond},
	}
	for i, w := range want {
		s := spans[i]
		if s.Thread != w.name || s.Start != w.start || s.End != w.end {
			t.Fatalf("span %d = %+v, want %+v", i, s, w)
		}
	}
	if tr.totalFor("low") != 30*time.Millisecond {
		t.Fatalf("low total = %v", tr.totalFor("low"))
	}
	if tr.totalFor("high") != 10*time.Millisecond {
		t.Fatalf("high total = %v", tr.totalFor("high"))
	}
}

func TestTracerCoalescesContiguousSpans(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "h", HostConfig{})
	tr := trace(h.cpu)
	h.Spawn("solo", 5, func(th *Thread) {
		// Two back-to-back computes: contiguous execution, one span.
		th.Compute(5 * time.Millisecond)
		th.Compute(5 * time.Millisecond)
	})
	k.Run()
	if len(tr.spans) != 1 {
		t.Fatalf("spans = %v, want one coalesced span", tr.spans)
	}
	if tr.spans[0].duration() != 10*time.Millisecond {
		t.Fatalf("span duration = %v", tr.spans[0].duration())
	}
}

func TestTracerAccountsReservationSlices(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "h", HostConfig{})
	tr := trace(h.cpu)
	r, err := h.ResourceKernel().Reserve(10*time.Millisecond, 100*time.Millisecond, EnforceHard)
	if err != nil {
		t.Fatal(err)
	}
	busyLoop(h, "hog", 50)
	h.Spawn("reserved", 1, func(th *Thread) {
		r.Attach(th)
		th.Compute(30 * time.Millisecond)
	})
	k.RunUntil(400 * time.Millisecond)
	// The reserved thread gets exactly 10ms per 100ms period until its
	// 30ms of demand is met.
	if got := tr.totalFor("reserved"); got != 30*time.Millisecond {
		t.Fatalf("reserved total = %v", got)
	}
	hog := tr.totalFor("hog")
	if hog < 360*time.Millisecond || hog > 372*time.Millisecond {
		t.Fatalf("hog total = %v, want ~370ms", hog)
	}
}

// trace attaches a tracer to c; tracing starts now.
func trace(c *CPU) *Tracer {
	c.tracer = &Tracer{}
	return c.tracer
}

// totalFor sums the CPU time recorded for a thread name.
func (tr *Tracer) totalFor(thread string) time.Duration {
	var total time.Duration
	for _, s := range tr.spans {
		if s.Thread == thread {
			total += s.duration()
		}
	}
	return total
}

func (s ExecSpan) duration() time.Duration { return time.Duration(s.End - s.Start) }
