package sim

import (
	"testing"
	"time"
)

// TestBucket: a bucket starts full, spends only whole amounts it holds,
// refills at its rate over elapsed time and never above its burst.
func TestBucket(t *testing.T) {
	b := NewBucket(10, 5, 0) // 10 tokens/s, depth 5
	for i := 0; i < 5; i++ {
		if !b.Take(0, 1) {
			t.Fatalf("take %d from a full bucket refused", i)
		}
	}
	if b.Take(0, 1) {
		t.Fatal("took from an empty bucket")
	}
	// 250 ms at 10/s accrues 2.5 tokens: two spends, not three.
	at := Time(250 * time.Millisecond)
	if !b.Take(at, 1) || !b.Take(at, 1) || b.Take(at, 1) {
		t.Error("250 ms must refill exactly two whole tokens")
	}
	if !b.Take(at+Time(50*time.Millisecond), 1) {
		t.Error("the half token left plus 50 ms must make a whole one")
	}
	// A long idle period refills to the burst, not beyond it.
	if !b.Take(Time(time.Hour), 5) || b.Take(Time(time.Hour), 1) {
		t.Error("an hour idle must refill to exactly the burst of 5")
	}
	// Time going backwards neither refills nor moves the refill origin.
	if b.Take(0, 1) {
		t.Error("an earlier instant refilled the bucket")
	}
	if b.Rate() != 10 {
		t.Errorf("Rate() = %g, want 10", b.Rate())
	}
}
