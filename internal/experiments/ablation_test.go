package experiments

import (
	"sync"
	"testing"
	"time"
)

// ablationChecks runs the mechanism claims once, at the options
// testdata/ablations_seed42_10s.golden pins.
var ablationChecks = sync.OnceValue(func() []Check {
	return Ablations(Options{Seed: 42, Duration: 10 * time.Second})
})

// claimHolds fails t unless the named mechanism's claim holds.
func claimHolds(t *testing.T, mechanism string) {
	t.Helper()
	for _, c := range ablationChecks() {
		if c.Experiment == mechanism {
			if !c.OK {
				t.Errorf("%s — %s: %s", c.Experiment, c.Claim, c.Detail)
			}
			return
		}
	}
	t.Fatalf("no claim for %q", mechanism)
}

func TestAblationDiffServVsFIFO(t *testing.T)       { claimHolds(t, "DiffServ EF vs FIFO") }
func TestAblationReservationVsMarking(t *testing.T) { claimHolds(t, "IntServ vs DSCP-only") }
func TestAblationPriorityInheritance(t *testing.T)  { claimHolds(t, "priority inheritance") }
func TestAblationEnforcementPolicy(t *testing.T)    { claimHolds(t, "hard vs soft enforcement") }
func TestAblationThreadPoolLanes(t *testing.T)      { claimHolds(t, "thread-pool lanes") }
func TestAblationFilterPlacement(t *testing.T)      { claimHolds(t, "filter at sender vs distributor") }
func TestAblationCollocation(t *testing.T)          { claimHolds(t, "collocation") }
func TestAblationPriorityDrivenReservations(t *testing.T) {
	claimHolds(t, "priority-driven reservations")
}
func TestAblationAdaptiveDSCP(t *testing.T) { claimHolds(t, "adaptive DSCP promotion") }
