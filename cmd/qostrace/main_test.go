package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunByteIdentical pins `qostrace -scenario all` with and without
// -json to the committed outputs in testdata (regenerate them with those
// commands only for a deliberate change), and checks that repeated runs
// are byte-identical.
func TestRunByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		golden string
		json   bool
	}{
		{"testdata/all.golden", false},
		{"testdata/all.json.golden", true},
	} {
		opt := options{scenario: "all", calls: 5, frames: 12, seed: 3, json: tc.json}
		var a, b bytes.Buffer
		if err := run(&a, opt); err != nil {
			t.Fatal(err)
		}
		if err := run(&b, opt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: repeated runs diverged", tc.golden)
		}
		golden, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), golden) {
			t.Errorf("output differs from %s:\n%s", tc.golden, a.String())
		}
	}
	if err := run(&bytes.Buffer{}, options{scenario: "bogus"}); err == nil {
		t.Error("unknown scenario accepted")
	}
}
