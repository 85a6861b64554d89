package lib

import "testing"

func TestLib(t *testing.T) {
	if TestOnly() != 3 || Seam() != 4 || Sum(Config{TestOnly: 1}) != 1 {
		t.Fatal("fixture values")
	}
}
