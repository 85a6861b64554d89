package experiments

import (
	"testing"
	"time"

	"repro/internal/events"
)

// TestRunMonitorClosedLoop pins the measurement-driven adaptation loop:
// the contract leaves normal because the SAMPLED rtt p95 crossed its
// threshold (no probe ever sets a condition), the qosket escalates into
// the EF band, and after the flood subsides the contract returns to
// normal and the qosket de-escalates.
func TestRunMonitorClosedLoop(t *testing.T) {
	r := RunMonitor(Options{Seed: 42, Duration: 9 * time.Second})

	if r.Escalate < 1 || r.Deescalate < 1 {
		t.Fatalf("qosket escalations=%d deescalations=%d, want >=1 each\nregions: %+v",
			r.Escalate, r.Deescalate, r.Regions)
	}
	want := []string{"normal", "degraded", "protected", "normal"}
	if len(r.Regions) < len(want) {
		t.Fatalf("region timeline %+v, want at least %v", r.Regions, want)
	}
	for i, reg := range want {
		if r.Regions[i].Region != reg {
			t.Fatalf("region[%d] = %q, want %q (timeline %+v)", i, r.Regions[i].Region, reg, r.Regions)
		}
	}
	if r.TimeIn["protected"] <= 0 {
		t.Fatalf("no time in protected region: %+v", r.TimeIn)
	}
	// The loop must have helped: clients keep succeeding through the
	// flood because escalation moves them into the EF band.
	if r.OK < r.Sent*8/10 {
		t.Fatalf("only %d/%d invocations succeeded", r.OK, r.Sent)
	}
	// The unified timeline carries the region transitions and both
	// alert rules firing and resolving.
	counts := r.Timeline.Counts()
	if counts[events.KindRegion] < 3 {
		t.Fatalf("timeline region records = %d, want >= 3", counts[events.KindRegion])
	}
	if counts[events.KindAlert] < 2 {
		t.Fatalf("timeline alert records = %d, want >= 2:\n%s",
			counts[events.KindAlert], r.Timeline.Render(events.KindAlert))
	}
	if counts[events.KindDrop] == 0 {
		t.Fatal("flood produced no drop records on the timeline")
	}
	// The exemplar breakdown decomposes a real invocation.
	if r.ExemplarTrace == 0 || len(r.Breakdown) == 0 || r.BreakdownTotal <= 0 {
		t.Fatalf("no exemplar breakdown: trace=%d shares=%v", r.ExemplarTrace, r.Breakdown)
	}
	var sum time.Duration
	for _, sh := range r.Breakdown {
		sum += time.Duration(sh.Time)
	}
	if sum != time.Duration(r.BreakdownTotal) {
		t.Fatalf("breakdown shares sum %v != end-to-end %v", sum, r.BreakdownTotal)
	}
}

// TestSimPlaneRecordsReconcile: in both monitoring scenarios, the shed
// and breaker records the server pool and the client ORB published agree
// with those layers' own counters.
func TestSimPlaneRecordsReconcile(t *testing.T) {
	if u := RunMonitor(Options{Seed: 42}).Unreconciled; len(u) > 0 {
		t.Errorf("RunMonitor: %v", u)
	}
	if u := RunSLO(Options{Seed: 42}).Unreconciled; len(u) > 0 {
		t.Errorf("RunSLO: %v", u)
	}
}

func TestRunMonitorDeterministic(t *testing.T) {
	a := RunMonitor(Options{Seed: 7, Duration: 6 * time.Second})
	b := RunMonitor(Options{Seed: 7, Duration: 6 * time.Second})
	if a.Timeline.Render() != b.Timeline.Render() {
		t.Fatal("timelines diverged across identically seeded runs")
	}
	if a.RTT.RenderTable("rtt").Render() != b.RTT.RenderTable("rtt").Render() {
		t.Fatal("rtt series diverged across identically seeded runs")
	}
}
