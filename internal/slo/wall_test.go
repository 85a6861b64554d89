package slo

import (
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
)

// fakeClock ticks like sim.Wall but reads a mutex-guarded controllable
// time.
type fakeClock struct {
	*sim.WallClock
	mu sync.Mutex
	t  sim.Time
}

func (c *fakeClock) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += sim.Time(d)
	c.mu.Unlock()
}

// TestWallTrackerBurnFires pins the wall-clock tracker on an injected
// clock: sustained bad events burn the budget, Evaluate transitions the
// pair to firing, and the bus record carries a wall timestamp.
func TestWallTrackerBurnFires(t *testing.T) {
	clk := &fakeClock{WallClock: sim.Wall}
	bus := events.NewBus(clk)
	var mu sync.Mutex
	var burns []events.Record
	bus.Subscribe(func(r events.Record) {
		mu.Lock()
		burns = append(burns, r)
		mu.Unlock()
	}, events.KindSLOBurn)

	st := NewTracker(clk, Objective{
		Name:  "ef",
		Goal:  0.99,
		Pairs: []WindowPair{{Short: 100 * time.Millisecond, Long: time.Second, Burn: 1}},
	}, bus)

	// 10% bad over a full long window: burn rate 0.1/0.01 = 10x >= 1.
	for i := 0; i < 100; i++ {
		st.Observe(i%10 != 0)
		clk.advance(10 * time.Millisecond)
	}
	if n := st.Evaluate(); n == 0 {
		t.Fatal("Evaluate reported no transitions despite sustained burn")
	}
	if !firing(st) {
		t.Fatal("tracker not firing after sustained burn")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(burns) == 0 {
		t.Fatal("no slo_burn record on the bus")
	}
	if burns[0].Wall.IsZero() {
		t.Fatal("wall-bus slo_burn record missing wall timestamp")
	}

	snap := st.Snapshot()
	if snap.Name != "ef" || len(snap.Pairs) != 1 || !snap.Pairs[0].Firing {
		t.Fatalf("snapshot = %+v, want firing ef pair", snap)
	}
	if snap.Bad == 0 || snap.Good == 0 {
		t.Fatalf("snapshot totals = good %d bad %d, want both nonzero", snap.Good, snap.Bad)
	}
}

// TestWallTrackerStartStopRestart pins the ticker goroutine lifecycle:
// Stop is synchronous, and a stopped wall tracker can start again.
func TestWallTrackerStartStopRestart(t *testing.T) {
	clk := &fakeClock{WallClock: sim.Wall}
	st := NewTracker(clk, Objective{
		Name:  "ef",
		Goal:  0.999,
		Pairs: []WindowPair{{Short: 50 * time.Millisecond, Long: 200 * time.Millisecond, Burn: 1}},
	}, nil)

	for cycle := 0; cycle < 2; cycle++ {
		st.Start(2 * time.Millisecond)
		st.Observe(true)
		time.Sleep(10 * time.Millisecond)
		st.Stop()
	}
	// Observing after Stop must not panic or deadlock.
	st.Observe(true)
	if firing(st) {
		t.Fatal("all-good tracker is firing")
	}
}

// TestWallTrackerConcurrentObserve hammers Observe from multiple
// goroutines while the evaluation ticker runs; fails under -race if
// tracker state is unguarded.
func TestWallTrackerConcurrentObserve(t *testing.T) {
	st := NewTracker(sim.Wall, Objective{
		Name:         "ef",
		Goal:         0.99,
		LatencyBound: 100 * time.Microsecond,
		Pairs:        []WindowPair{{Short: 10 * time.Millisecond, Long: 50 * time.Millisecond, Burn: 1}},
	}, nil)
	st.Start(time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(bad bool) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				st.Observe(!bad || j%3 == 0)
				st.ObserveLatency(time.Duration(j) * time.Microsecond)
			}
		}(i%2 == 0)
	}
	wg.Wait()
	st.Stop()
	snap := st.Snapshot()
	if snap.Good+snap.Bad != 4000 {
		t.Fatalf("observed %d events, want 4000", snap.Good+snap.Bad)
	}
}
