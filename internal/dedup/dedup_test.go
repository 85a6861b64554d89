package dedup

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/giop"
)

func key(n uint32) giop.FTKey { return giop.FTKey{Group: 1, Client: 9, Retention: n} }

// op is one cache call and what it must return.
type op struct {
	do      string // admit | complete | abort | cancel
	key     uint32
	waiter  string // admit: the waiter handed in
	body    string // complete: the reply body
	verdict Verdict
	replay  string   // admit → Replay: expected cached body
	waiters []string // complete/abort: expected parked waiters, in arrival order
	ok      bool     // cancel: expected result
}

// TestCacheInvariants drives the cache through scripted histories and
// checks every return value — the one statement of the at-most-once
// policy both planes rely on.
func TestCacheInvariants(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		ops  []op
	}{
		{"replay returns the completed status and bytes", 4, []op{
			{do: "admit", key: 1, verdict: First},
			{do: "complete", key: 1, body: "r1"},
			{do: "admit", key: 1, verdict: Replay, replay: "r1"},
			{do: "admit", key: 1, verdict: Replay, replay: "r1"},
			{do: "admit", key: 2, verdict: First},
		}},
		{"duplicates in flight park and come back from complete", 4, []op{
			{do: "admit", key: 1, verdict: First},
			{do: "admit", key: 1, waiter: "a", verdict: Parked},
			{do: "admit", key: 1, waiter: "b", verdict: Parked},
			{do: "complete", key: 1, body: "r1", waiters: []string{"a", "b"}},
			{do: "complete", key: 1, body: "again"}, // a second outcome is ignored
			{do: "admit", key: 1, verdict: Replay, replay: "r1"},
		}},
		{"abort hands back parked waiters and lets the retry execute", 4, []op{
			{do: "admit", key: 1, verdict: First},
			{do: "admit", key: 1, waiter: "a", verdict: Parked},
			{do: "abort", key: 1, waiters: []string{"a"}},
			{do: "admit", key: 1, verdict: First},
			{do: "complete", key: 1, body: "r1"},
			{do: "abort", key: 1}, // a completed reply is never aborted
			{do: "admit", key: 1, verdict: Replay, replay: "r1"},
		}},
		{"cancel forgets an unwanted invocation but not a wanted one", 4, []op{
			{do: "admit", key: 1, verdict: First},
			{do: "cancel", key: 1, ok: true},
			{do: "admit", key: 1, verdict: First},
			{do: "admit", key: 1, waiter: "a", verdict: Parked},
			{do: "cancel", key: 1, ok: false},
			{do: "complete", key: 1, body: "r1", waiters: []string{"a"}},
			{do: "cancel", key: 9, ok: true}, // unknown key: nothing to keep
		}},
		{"completed replies are evicted oldest-first by completion", 2, []op{
			{do: "admit", key: 1, verdict: First},
			{do: "admit", key: 2, verdict: First},
			{do: "complete", key: 2, body: "r2"},
			{do: "complete", key: 1, body: "r1"},
			{do: "admit", key: 3, verdict: First}, // over capacity: r2 goes
			{do: "admit", key: 1, verdict: Replay, replay: "r1"},
			{do: "admit", key: 2, verdict: First}, // evicted, so it executes again; r1 goes
			{do: "admit", key: 1, verdict: First},
		}},
		{"in-flight invocations are never evicted", 2, []op{
			{do: "admit", key: 1, verdict: First},
			{do: "admit", key: 2, verdict: First},
			{do: "admit", key: 3, verdict: First},
			{do: "admit", key: 4, verdict: First},
			{do: "admit", key: 1, waiter: "a", verdict: Parked},
			{do: "admit", key: 2, waiter: "b", verdict: Parked},
			{do: "complete", key: 1, body: "r1", waiters: []string{"a"}},
			{do: "admit", key: 5, verdict: First}, // only r1 is evictable
			{do: "admit", key: 1, verdict: First},
			{do: "admit", key: 2, waiter: "c", verdict: Parked},
			{do: "complete", key: 2, body: "r2", waiters: []string{"b", "c"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](tc.cap)
			for i, o := range tc.ops {
				switch o.do {
				case "admit":
					v, r := c.Admit(key(o.key), o.waiter)
					if v != o.verdict {
						t.Fatalf("op %d: Admit(%d) = %v, want %v", i, o.key, v, o.verdict)
					}
					if v == Replay && (r.Status != giop.StatusUserException || !bytes.Equal(r.Body, []byte(o.replay))) {
						t.Fatalf("op %d: replay = %v %q, want USER_EXCEPTION %q", i, r.Status, r.Body, o.replay)
					}
				case "complete":
					got := c.Complete(key(o.key), Reply{Status: giop.StatusUserException, Body: []byte(o.body)})
					if !reflect.DeepEqual(got, o.waiters) {
						t.Fatalf("op %d: Complete(%d) waiters = %v, want %v", i, o.key, got, o.waiters)
					}
				case "abort":
					if got := c.Abort(key(o.key)); !reflect.DeepEqual(got, o.waiters) {
						t.Fatalf("op %d: Abort(%d) waiters = %v, want %v", i, o.key, got, o.waiters)
					}
				case "cancel":
					if got := c.Cancel(key(o.key)); got != o.ok {
						t.Fatalf("op %d: Cancel(%d) = %v, want %v", i, o.key, got, o.ok)
					}
				}
			}
		})
	}
}

// TestCacheConcurrentAdmit races duplicates of one key from many
// goroutines: exactly one is First, and every other one is either
// parked and handed back by Complete or replayed.
func TestCacheConcurrentAdmit(t *testing.T) {
	const n = 64
	c := New[int](8)
	var mu sync.Mutex
	first, answered := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch v, _ := c.Admit(key(1), i); v {
			case First:
				parked := c.Complete(key(1), Reply{Body: []byte("r")})
				mu.Lock()
				first++
				answered += len(parked)
				mu.Unlock()
			case Replay:
				mu.Lock()
				answered++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if first != 1 || answered != n-1 {
		t.Fatalf("first = %d, answered duplicates = %d; want 1 and %d", first, answered, n-1)
	}
}
