package wire

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRetryBudgetZeroBalance pins the bucket's edge behaviour around
// empty: an empty bucket denies, fractional earnings accumulate until a
// whole token exists, and degenerate configurations (zero capacity,
// zero ratio) never grant anything.
func TestRetryBudgetZeroBalance(t *testing.T) {
	b := NewRetryBudget(1, 0.5)
	if !b.TryAcquire() {
		t.Fatal("full one-token bucket denied the first retry")
	}
	if b.TryAcquire() {
		t.Fatal("empty bucket granted a retry")
	}
	b.Earn() // 0.5: still short of a whole token
	if b.TryAcquire() {
		t.Fatal("0.5 tokens granted a retry")
	}
	b.Earn() // 1.0
	if !b.TryAcquire() {
		t.Fatal("two earns at ratio 0.5 must buy one retry")
	}
	if got := b.Tokens(); got != 0 {
		t.Fatalf("tokens = %g, want 0", got)
	}
	if b.Spent() != 2 || b.Denied() != 2 {
		t.Fatalf("spent/denied = %d/%d, want 2/2", b.Spent(), b.Denied())
	}

	// Zero capacity: earning caps at zero, nothing is ever granted.
	zero := NewRetryBudget(0, 1)
	for i := 0; i < 5; i++ {
		zero.Earn()
	}
	if zero.TryAcquire() {
		t.Fatal("zero-capacity bucket granted a retry")
	}
	if got := zero.Tokens(); got != 0 {
		t.Fatalf("zero-capacity tokens = %g, want 0", got)
	}

	// Zero ratio: the initial allowance is all there ever is.
	flat := NewRetryBudget(1, 0)
	if !flat.TryAcquire() {
		t.Fatal("initial allowance missing")
	}
	for i := 0; i < 100; i++ {
		flat.Earn()
	}
	if flat.TryAcquire() {
		t.Fatal("zero-ratio bucket re-earned a token")
	}
}

// TestRetryBudgetConcurrent hammers one bucket from many goroutines:
// exactly max grants, every other attempt denied, and the counters sum
// to the attempt count.
func TestRetryBudgetConcurrent(t *testing.T) {
	const (
		capacity = 10
		workers  = 100
	)
	b := NewRetryBudget(capacity, 0)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			b.TryAcquire()
		}()
	}
	close(start)
	wg.Wait()
	if b.Spent() != capacity {
		t.Fatalf("spent = %d, want %d", b.Spent(), capacity)
	}
	if b.Denied() != workers-capacity {
		t.Fatalf("denied = %d, want %d", b.Denied(), workers-capacity)
	}
	if got := b.Tokens(); got != 0 {
		t.Fatalf("tokens = %g, want 0", got)
	}
}

// TestRetryBudgetConcurrentEarnSpend interleaves earners and spenders:
// no lost updates — the final balance is exactly initial + earned -
// spent, clamped to max.
func TestRetryBudgetConcurrentEarnSpend(t *testing.T) {
	const workers = 50
	b := NewRetryBudget(10000, 1)
	// Drain well below max first: the bucket starts full, and a clamped
	// Earn would make the final balance unreconcilable.
	for i := 0; i < 2000; i++ {
		b.TryAcquire()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				b.Earn()
				b.TryAcquire()
			}
		}()
	}
	wg.Wait()
	// Every Earn adds 1 (never clamped: balance stays far below max)
	// and every TryAcquire that succeeded removed 1, so the balance
	// reconciles exactly against the spent counter.
	want := 10000 + float64(workers*20) - float64(b.Spent())
	if got := b.Tokens(); got != want {
		t.Fatalf("tokens = %g, want %g (spent %d, denied %d)", got, want, b.Spent(), b.Denied())
	}
	if b.Denied() != 0 {
		t.Fatalf("denied = %d, want 0 (bucket never emptied)", b.Denied())
	}
}

// TestGroupBudgetAllEndpointsDown pins the retry-storm bound end to
// end: with every endpoint refusing dials, each logical request spends
// at most one retry per member and stops the moment the shared bucket
// runs dry, surfacing ErrUnavailable rather than hammering the dead
// set.
func TestGroupBudgetAllEndpointsDown(t *testing.T) {
	f := newFabric(t)
	for _, ep := range []string{"a", "b", "c"} {
		f.addServer(ep)
		f.setDead(ep, true)
	}
	g := f.group(t, GroupConfig{
		Endpoints:   []string{"a", "b", "c"},
		BackoffBase: time.Millisecond,
	})
	g.budget = NewRetryBudget(5, 0) // nothing earns while everything fails

	// First requests burn the initial allowance: 3 retries, then 2.
	for i := 0; i < 2; i++ {
		if _, err := g.Invoke("app/x", "x", nil, CallOptions{Timeout: time.Second}); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("Invoke %d = %v, want ErrUnavailable", i, err)
		}
	}
	if spent := g.Budget().Spent(); spent != 5 {
		t.Fatalf("budget spent = %d, want 5 (3 retries then 2 as the bucket drained)", spent)
	}
	// Bucket empty: further requests fail on the first attempt only.
	before := g.Budget().Denied()
	if _, err := g.Invoke("app/x", "x", nil, CallOptions{Timeout: time.Second}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("post-drain Invoke = %v, want ErrUnavailable", err)
	}
	if spent := g.Budget().Spent(); spent != 5 {
		t.Fatalf("budget spent = %d after drain, want still 5", spent)
	}
	if denied := g.Budget().Denied(); denied != before+1 {
		t.Fatalf("denied = %d, want %d (one denied retry per post-drain request)", denied, before+1)
	}
}
