package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRunByteIdentical pins the acceptance criteria: repeated same-seed
// runs produce byte-identical reports, equal to the committed output of
// `qosslo -events` (testdata/events.golden; regenerate it with that
// command only for a deliberate change); the burn rate fires
// before the raw-p95 rule; the contract escalates on burn; every
// deadline-missed invocation has a kept trace whose critical path names
// a guilty layer; and the kept-trace rate lands on the head budget.
func TestRunByteIdentical(t *testing.T) {
	opt := options{seed: 42, allEvents: true}
	a, b := run(opt), run(opt)
	if a != b {
		t.Fatalf("repeated runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	golden, err := os.ReadFile("testdata/events.golden")
	if err != nil {
		t.Fatal(err)
	}
	if a != string(golden) {
		t.Errorf("report differs from testdata/events.golden:\n%s", a)
	}

	if !strings.Contains(a, "winner: burn rate, by ") {
		t.Errorf("burn rate did not beat the p95 threshold rule:\n%s", a)
	}
	if !strings.Contains(a, "from=normal to=burning") {
		t.Errorf("contract never entered the burning region:\n%s", a)
	}
	if !strings.Contains(a, "escalation(s) to the EF band") || strings.Contains(a, "0 escalation(s)") {
		t.Errorf("no burn-driven escalation:\n%s", a)
	}

	// Every deadline miss must have survived sampling with a named
	// guilty layer.
	m := regexp.MustCompile(`deadline-miss audit: (\d+) missed invocations, (\d+) with a kept trace`).FindStringSubmatch(a)
	if m == nil {
		t.Fatalf("audit line missing:\n%s", a)
	}
	if m[1] == "0" || m[1] != m[2] {
		t.Errorf("sampler lost deadline-missed traces: %s missed, %s kept", m[1], m[2])
	}
	if !strings.Contains(a, "critical path of trace") {
		t.Errorf("no critical path rendered for the slowest kept miss:\n%s", a)
	}
	if !strings.Contains(a, "slo_burn") || !strings.Contains(a, "state=resolved") {
		t.Errorf("slo_burn transitions missing from the timeline:\n%s", a)
	}
}
