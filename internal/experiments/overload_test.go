package experiments

import (
	"testing"
)

func TestOverloadDegradesGracefully(t *testing.T) {
	r := RunOverload(Options{})

	// Flight-critical commands ride out the overload: nothing fails and
	// the p99 during the 2x window stays within the deadline.
	if r.HighFailed != 0 {
		t.Errorf("high band: %d of %d commands failed", r.HighFailed, r.HighSent)
	}
	if p99 := r.HighP99(); p99 > overloadHighDeadline {
		t.Errorf("high band p99 %v exceeds deadline %v", p99, overloadHighDeadline)
	}

	// The telemetry flood degrades: a healthy fraction is deliberately
	// shed, not queued unboundedly.
	if r.ShedRate < 0.2 || r.ShedRate > 0.7 {
		t.Errorf("shed rate = %.2f, want a clear but partial shed", r.ShedRate)
	}
	if r.LowRefused == 0 || r.LowShedDeadline == 0 {
		t.Errorf("expected both admission refusals (%d) and deadline sheds (%d)",
			r.LowRefused, r.LowShedDeadline)
	}
	if r.PrimaryQueueFinal > 16 {
		t.Errorf("primary lane queue depth %d after recovery", r.PrimaryQueueFinal)
	}

	// The breaker opened on the saturated primary and re-closed once the
	// load dropped, and ops availability survived via the backup.
	if !r.BreakerOpened || !r.BreakerReclosed {
		t.Errorf("breaker opened=%v reclosed=%v, want both", r.BreakerOpened, r.BreakerReclosed)
	}
	total := r.OpsOK + r.OpsOverload + r.OpsDeadline + r.OpsFailed
	if total == 0 || float64(r.OpsOK) < 0.9*float64(total) {
		t.Errorf("ops availability %d/%d below 90%%", r.OpsOK, total)
	}
}

func TestOverloadDeterministic(t *testing.T) {
	a := RunOverload(Options{})
	b := RunOverload(Options{})
	if ra, rb := a.Render(), b.Render(); ra != rb {
		t.Fatalf("same-seed runs diverged:\n--- first ---\n%s\n--- second ---\n%s", ra, rb)
	}
}
