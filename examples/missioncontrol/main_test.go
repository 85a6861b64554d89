package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRunByteIdentical pins the example's claim: repeated runs are
// byte-identical, both alarms reach the ground console, no task misses
// a deadline, every alarm beats every telemetry frame end to end, and
// the expedited subscriber's bounded outbox never dropped.
func TestRunByteIdentical(t *testing.T) {
	a, b := run(), run()
	if a != b {
		t.Fatalf("repeated runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.HasSuffix(a, "2 alarms delivered, 0 deadline misses\n") {
		t.Errorf("unexpected closing line:\n%s", a)
	}
	if !strings.Contains(a, "ground-alarms    priority 30000:  2 delivered, 0 dropped\n") {
		t.Errorf("expedited subscriber did not deliver 2 and drop 0:\n%s", a)
	}

	var alarm, telemetry string
	var frames int
	_, line, _ := strings.Cut(a, "\nslowest alarm ")
	if _, err := fmt.Sscanf(line, "%s fastest of %d telemetry frames %s\n", &alarm, &frames, &telemetry); err != nil {
		t.Fatalf("latency line %q: %v", line, err)
	}
	slowest, err1 := time.ParseDuration(strings.TrimSuffix(alarm, ","))
	fastest, err2 := time.ParseDuration(telemetry)
	if err1 != nil || err2 != nil {
		t.Fatalf("latencies %q, %q: %v, %v", alarm, telemetry, err1, err2)
	}
	if frames == 0 || slowest >= fastest {
		t.Errorf("slowest alarm %v is not ahead of the fastest of %d telemetry frames (%v)", slowest, frames, fastest)
	}
}
