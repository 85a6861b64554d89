package rtcorba

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
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
	if st := tp.Stats(0); st.Evicted != 1 || st.Refused != 1 {
		t.Fatalf("evicted=%d refused=%d, want 1/1", st.Evicted, st.Refused)
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
// expired while queued is shed (callback, count) instead of executed.
func TestDeadlineShedAtDequeue(t *testing.T) {
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(), LaneConfig{Priority: 0, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	if st := tp.Stats(0); st != (LaneStats{Served: 2, Deadline: 1}) {
		t.Fatalf("stats %+v, want 2 served, 1 deadline", st)
	}
}

// TestLaneOutcomeEachFate drives one work item to each of the pool's four
// outcomes behind a busy thread: A runs, C is evicted by E, D is refused at
// the full queue, B's deadline passes while it waits, and E runs. Each is
// counted once in Stats, is published as a KindShed record and reaches
// the Work.Shed callback (a refusal only the record: Dispatch's false
// answers the caller), and ends
// its lane.queue span with its outcome's event.
func TestLaneOutcomeEachFate(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	h := rtos.NewHost(k, "h", rtos.HostConfig{})
	tp, err := NewThreadPool(h, NewMappingManager(), LaneConfig{Priority: 0, Threads: 1, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewTracer(k)
	tp.SetTracer(tr)
	bus := events.NewBus(k)
	records := events.NewTimeline(bus, events.KindShed)
	tp.SetBus(bus, "pool/h/app")
	var shed []string
	offered := 0
	dispatch := func(name string, p Priority, dl time.Duration, fn func(*rtos.Thread)) bool {
		offered++
		root := tr.StartRoot(name, trace.LayerApp)
		defer root.Finish()
		return tp.Dispatch(Work{Priority: p, Fn: fn, Ctx: root.Context(), Deadline: sim.Time(dl),
			Shed: func(r ShedReason) { shed = append(shed, name+" "+r.String()) }})
	}
	busy := func(t *rtos.Thread) { t.Compute(100 * time.Millisecond) }
	quick := func(*rtos.Thread) {}

	dispatch("A", 10, 0, busy)
	k.RunUntil(sim.Time(time.Millisecond)) // the thread is running A
	dispatch("B", 20, 50*time.Millisecond, quick)
	dispatch("C", 5, 0, quick)
	if dispatch("D", 5, 0, quick) {
		t.Fatal("D admitted to a full lane with no lower-priority victim")
	}
	if !dispatch("E", 30, 0, quick) {
		t.Fatal("E refused despite an evictable victim")
	}
	k.RunUntil(sim.Time(time.Second))

	st := tp.Stats(0)
	if st != (LaneStats{Served: 2, Refused: 1, Evicted: 1, Deadline: 1}) {
		t.Errorf("stats %+v, want 2 served and one of each other outcome", st)
	}
	if sum := st.Served + st.Refused + st.Evicted + st.Deadline + int64(tp.QueueDepth(0)); sum != int64(offered) {
		t.Errorf("offered %d, accounted %d", offered, sum)
	}
	var reasons []string
	for _, r := range records.Records() {
		if r.Source != "pool/h/app" || r.Fields[0] != events.F("lane", "0") {
			t.Errorf("shed record %v, want source pool/h/app and lane=0", r)
		}
		reasons = append(reasons, r.Fields[1].V)
	}
	if got, want := fmt.Sprint(reasons), "[refused evicted deadline]"; got != want {
		t.Errorf("KindShed record reasons %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(shed), "[C evicted B deadline]"; got != want {
		t.Errorf("Shed callbacks %s, want %s", got, want)
	}
	events := map[string]string{}
	parent := map[trace.SpanID]string{}
	spans := tr.Collector().Spans()
	for _, s := range spans {
		if s.Parent == 0 {
			parent[s.ID] = s.Name
		}
	}
	for _, s := range spans {
		if s.Name != "lane.queue" {
			continue
		}
		var evs []string
		for _, e := range s.Events {
			evs = append(evs, fmt.Sprint(e.Name, e.Attrs))
		}
		events[parent[s.Parent]] = fmt.Sprint(evs)
	}
	want := map[string]string{"A": "[]", "B": "[deadline_expired[]]", "C": "[shed[{reason evicted}]]",
		"D": "[refused[]]", "E": "[]"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("lane.queue events by item %v, want %v", events, want)
	}
}
