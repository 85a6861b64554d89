package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestRunPubSubSmoke runs a short wall-clock pub/sub scenario and
// asserts the claims qosbench -run pubsub checks: the expedited feed
// stays lossless while the flood's losses land on admission and the
// slow consumer, and every drop is a bus record.
func TestRunPubSubSmoke(t *testing.T) {
	r := RunPubSub(Options{Duration: time.Second})
	for _, c := range r.Checks() {
		if !c.OK {
			t.Errorf("%s: %s", c.Claim, c.Detail)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "EF fan-out latency") || !strings.Contains(out, "overflow drops") {
		t.Errorf("Render missing expected sections:\n%s", out)
	}
}
