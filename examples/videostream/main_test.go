package main

import (
	"os"
	"testing"
)

// TestRunByteIdentical pins the example's transcript: repeated runs are
// byte-identical and equal to the committed output of `go run
// ./examples/videostream` (testdata/run.golden; regenerate it with that
// command only for a deliberate change).
func TestRunByteIdentical(t *testing.T) {
	a, b := run(), run()
	if a != b {
		t.Fatalf("repeated runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	golden, err := os.ReadFile("testdata/run.golden")
	if err != nil {
		t.Fatal(err)
	}
	if a != string(golden) {
		t.Errorf("transcript differs from testdata/run.golden:\n%s", a)
	}
}
