package main

import (
	"strings"
	"testing"
)

// TestRunDumpsExperimentTopologies pins that topoview shows what the
// experiments run: both topologies dump, and the reservation link and
// hosts carry the values runReservationCase sets (64 KiB queue, 1 ms
// quantum, one installed 1.2 Mbps reservation).
func TestRunDumpsExperimentTopologies(t *testing.T) {
	ds, err := run("diffserv")
	if err != nil {
		t.Fatalf("diffserv: %v", err)
	}
	for _, want := range []string{"crossgen", "router", "sender -> router -> receiver"} {
		if !strings.Contains(ds, want) {
			t.Errorf("diffserv dump lacks %q:\n%s", want, ds)
		}
	}

	rs, err := run("reservation")
	if err != nil {
		t.Fatalf("reservation: %v", err)
	}
	for _, want := range []string{"65536 B", "1ms", "1.20 Mbps"} {
		if !strings.Contains(rs, want) {
			t.Errorf("reservation dump lacks %q:\n%s", want, rs)
		}
	}

	if _, err := run("bogus"); err == nil {
		t.Error("unknown topology accepted")
	}
}
