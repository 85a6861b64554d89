package main

import (
	"os"
	"testing"
	"time"
)

// TestRunByteIdentical pins the acceptance criterion that repeated runs
// with the same flags produce byte-identical output, equal to the
// committed output of `qosfailover` and `qosfailover -recover`
// (testdata/*.golden; regenerate them with those commands only for a
// deliberate change).
func TestRunByteIdentical(t *testing.T) {
	opt := options{seed: 42, period: 100 * time.Millisecond, crashAt: 2 * time.Second, dur: 4 * time.Second}
	for _, tc := range []struct {
		golden  string
		recover bool
	}{{"default", false}, {"recover", true}} {
		opt.recover = tc.recover
		a, b := run(opt), run(opt)
		if a != b {
			t.Fatalf("repeated %s runs diverged:\n--- first ---\n%s\n--- second ---\n%s", tc.golden, a, b)
		}
		golden, err := os.ReadFile("testdata/" + tc.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if a != string(golden) {
			t.Errorf("output differs from testdata/%s.golden:\n%s", tc.golden, a)
		}
	}
}
