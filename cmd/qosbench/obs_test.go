package main

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestTCPEndToEnd is the real-socket acceptance test: qoscall-shaped
// mixed EF/BE open-loop load against a qosserve-shaped server over
// localhost TCP, race-clean, asserting the isolation claim -run obs
// checks — saturating the best-effort lane must not drag the expedited
// tail up to it. One bare phase at EF 200 Hz, a tenth of EF capacity.
func TestTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket run")
	}
	res, err := benchPhase(700*time.Millisecond, 200, nil)
	if err != nil {
		t.Fatalf("benchPhase: %v", err)
	}
	t.Logf("\n%s  server: refused=%d deadline_shed=%d", wire.RenderReports([]wire.ClassReport{res.EF, res.BE}), res.Refused, res.Shed)

	if res.EF.OK < 50 {
		t.Fatalf("EF completed only %d calls", res.EF.OK)
	}
	if res.BE.OK < 50 {
		t.Fatalf("BE completed only %d calls", res.BE.OK)
	}
	if c := isolationCheck(res.EF, res.BE); !c.OK {
		t.Errorf("%s: %s", c.Claim, c.Detail)
	}
}

// TestObsBenchSmoke runs the observer-overhead harness on short phases
// and checks that every observer of the resident plane ran: the wall
// sampler closed windows, the runtime collector published go.* series,
// the profiler wrote captures and the /events stream delivered records.
func TestObsBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket run")
	}
	res, err := runObsBench(100 * time.Millisecond)
	if err != nil {
		t.Fatalf("runObsBench: %v", err)
	}
	t.Logf("\n%s", res.Render())
	for _, c := range []struct {
		what string
		n    float64
	}{
		{"sampler ticks", float64(res.SamplerTicks)},
		{"runtime series", float64(res.RuntimeSeries)},
		{"profile captures", res.ProfileCaptures},
		{"events streamed", float64(res.EventsStreamed)},
	} {
		if c.n <= 0 {
			t.Errorf("%s = %g; the observer never ran", c.what, c.n)
		}
	}
}
