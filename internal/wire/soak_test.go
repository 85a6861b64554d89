package wire_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestChaosSoakInvariants is the wire plane's robustness acceptance
// test: a seeded soak drives >=10k mixed EF/BE logical requests through
// the canonical chaos topology (BE prefers a latency-tortured,
// kill/restarted primary; EF prefers the clean replica) and asserts the
// claims qosbench -run chaos checks: at-most-once execution, no silent
// loss, bounded recovery from the kill, and EF isolation while the
// BE-only path is tortured.
func TestChaosSoakInvariants(t *testing.T) {
	requests := 10000
	if testing.Short() {
		requests = 1500
	}
	rep, err := chaos.RunSoak(chaos.SoakConfig{
		Seed:     7,
		Requests: requests,
		Log:      t.Logf,
	})
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	t.Logf("\n%s", rep.Render())
	for _, c := range rep.Checks() {
		if !c.OK {
			t.Errorf("%s: %s", c.Claim, c.Detail)
		}
	}
	if rep.WallMs > float64(5*time.Minute/time.Millisecond) {
		t.Errorf("soak took %.0fms, runaway", rep.WallMs)
	}
}
