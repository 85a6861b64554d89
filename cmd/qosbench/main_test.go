package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// report runs qosbench with args, requires exit status 0, and returns
// its stdout.
func report(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("qosbench %v exited %d:\n%s", args, code, out.String())
	}
	return out.String()
}

// golden runs qosbench with args twice, requires byte-identical
// reports, compares them to testdata/name, and returns the report.
// Regenerate a golden with the run it names (its stdout) only for a
// deliberate change.
func golden(t *testing.T, name string, args ...string) string {
	t.Helper()
	a, b := report(t, args...), report(t, args...)
	if a != b {
		t.Fatalf("%v: repeated runs diverged:\n--- first ---\n%s\n--- second ---\n%s", args, a, b)
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if a != string(want) {
		t.Errorf("%v: output differs from testdata/%s:\n%s", args, name, a)
	}
	return a
}

// TestFailoverGoldens pins the failover report, with and without
// recovery, to testdata/failover{,-recover}.golden.
func TestFailoverGoldens(t *testing.T) {
	golden(t, "failover.golden", "-run", "failover")
	golden(t, "failover-recover.golden", "-run", "failover-recover")
}

// TestSLOGolden pins the SLO report to testdata/slo.golden, and checks
// that the burn rate fires before the raw-p95 rule, the contract
// escalates on burn, and every deadline-missed invocation has a kept
// trace whose critical path is rendered.
func TestSLOGolden(t *testing.T) {
	a := golden(t, "slo.golden", "-run", "slo")
	if !strings.Contains(a, "winner: burn rate, by ") {
		t.Errorf("burn rate did not beat the p95 threshold rule:\n%s", a)
	}
	if !strings.Contains(a, "from=normal to=burning") {
		t.Errorf("contract never entered the burning region:\n%s", a)
	}
	if !strings.Contains(a, "escalation(s) to the EF band") || strings.Contains(a, "0 escalation(s)") {
		t.Errorf("no burn-driven escalation:\n%s", a)
	}
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

// TestTraceGolden pins the trace report at seed 3 to
// testdata/trace.golden.
func TestTraceGolden(t *testing.T) {
	golden(t, "trace.golden", "-run", "trace", "-seed", "3")
}

// TestTraceJSONGolden pins the exemplar-trace document -run trace -json
// writes to testdata/trace.json.golden, and checks -jsonl streams spans.
func TestTraceJSONGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "trace.json.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	out := report(t, "-run", "trace", "-seed", "3", "-json", "-jsonl", "spans.jsonl")
	if !strings.Contains(out, "wrote BENCH_trace.json") {
		t.Errorf("no BENCH_trace.json line:\n%s", out)
	}
	doc, err := os.ReadFile("BENCH_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, golden) {
		t.Errorf("BENCH_trace.json differs from testdata/trace.json.golden:\n%s", doc)
	}
	spans, err := os.ReadFile("spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(spans, []byte("\n")); n == 0 {
		t.Error("-jsonl wrote no spans")
	}
}

// TestOverloadRepeatable: repeated runs with the same seed produce
// byte-identical reports, the high band stays within its deadline at 2x
// saturation, and the circuit breaker opens on the saturated primary and
// re-closes after the load drops.
func TestOverloadRepeatable(t *testing.T) {
	a, b := report(t, "-run", "overload"), report(t, "-run", "overload")
	if a != b {
		t.Fatalf("repeated runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "(within deadline") {
		t.Errorf("high band exceeded its deadline:\n%s", a)
	}
	if !strings.Contains(a, "re-closed after load dropped") {
		t.Errorf("breaker did not open and re-close:\n%s", a)
	}
}

// TestTopologyDumps pins that the topology dumps show what the
// experiments run: the reservation link and hosts carry the values
// runReservationCase sets (64 KiB queue, 1 ms quantum, one installed
// 1.2 Mbps reservation).
func TestTopologyDumps(t *testing.T) {
	ds := report(t, "-run", "topo-diffserv")
	for _, want := range []string{"crossgen", "router", "sender -> router -> receiver"} {
		if !strings.Contains(ds, want) {
			t.Errorf("diffserv dump lacks %q:\n%s", want, ds)
		}
	}
	rs := report(t, "-run", "topo-reservation")
	for _, want := range []string{"65536 B", "1ms", "1.20 Mbps"} {
		if !strings.Contains(rs, want) {
			t.Errorf("reservation dump lacks %q:\n%s", want, rs)
		}
	}
}

// TestExitCodes: a passing audit exits 0, and so does an SLO run off
// its default horizon; a failed claim exits 1 (an overload run too
// short for the breaker to re-close after the load drops); an unknown
// -run exits 2, and so does the retired -run wire.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-run", "audit", "-seed", "1"}, 0},
		{[]string{"-run", "slo", "-duration", "30s"}, 0},
		{[]string{"-run", "overload", "-duration", "1s"}, 1},
		{[]string{"-run", "bogus"}, 2},
		{[]string{"-run", "wire"}, 2},
	} {
		var out bytes.Buffer
		if got := run(tc.args, &out); got != tc.want {
			t.Errorf("qosbench %v exited %d, want %d:\n%s", tc.args, got, tc.want, out.String())
		}
	}
}
