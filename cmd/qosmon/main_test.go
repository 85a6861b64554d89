package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunByteIdentical pins the acceptance criteria: repeated runs with
// the same seed produce byte-identical dashboards including the
// per-layer latency breakdown table, equal to the committed output of
// `qosmon -prom` (testdata/prom.golden; regenerate it with that command
// only for a deliberate change), and the QuO contract performs at
// least one region transition triggered by a sampled condition (the
// closed monitoring loop), never by a hand-set probe.
func TestRunByteIdentical(t *testing.T) {
	opt := options{seed: 42, prom: true}
	a, rega := run(opt)
	b, regb := run(opt)
	if a != b {
		t.Fatalf("repeated runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	golden, err := os.ReadFile("testdata/prom.golden")
	if err != nil {
		t.Fatal(err)
	}
	if a != string(golden) {
		t.Errorf("dashboard differs from testdata/prom.golden:\n%s", a)
	}
	if rega == nil || regb == nil {
		t.Fatal("run returned no registry")
	}
	if !strings.Contains(a, "Critical-path latency breakdown") {
		t.Errorf("dashboard missing per-layer breakdown table:\n%s", a)
	}
	if !strings.Contains(a, "from=normal to=degraded") {
		t.Errorf("no measurement-driven region transition on the timeline:\n%s", a)
	}
	if !strings.Contains(a, "transitions from sampled data  yes") {
		t.Errorf("closed-loop acceptance line not satisfied:\n%s", a)
	}
	if !strings.Contains(a, "state=firing") || !strings.Contains(a, "state=resolved") {
		t.Errorf("alert rules did not both fire and resolve:\n%s", a)
	}
	if !strings.Contains(a, "/metrics exposition:\n# TYPE") {
		t.Errorf("-prom did not append the exposition:\n%s", a)
	}
}
