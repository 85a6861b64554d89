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
// and asserts that every observer of the resident plane ran. The
// isolation claim -run obs also checks is TestTCPEndToEnd's: a 100 ms
// phase builds too little BE queue for it (EF p99 came within 3 % of
// half the BE p99 in 1 of 20 runs under -race on 2 vCPU).
func TestObsBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket run")
	}
	res, err := runObsBench(100 * time.Millisecond)
	if err != nil {
		t.Fatalf("runObsBench: %v", err)
	}
	t.Logf("\n%s", res.Render())
	if c := res.observersRan(); !c.OK {
		t.Errorf("%s: %s", c.Claim, c.Detail)
	}
}
