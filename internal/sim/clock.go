package sim

import (
	"context"
	"sync"
	"time"
)

// Clock is what a periodic observer (the events bus, the monitor
// sampler, the SLO tracker, a tracer) needs of time: a reading and a
// recurring callback. A *Kernel is the clock of a simulation; Wall is
// the clock of a live process. Code written against Clock runs on
// either without knowing which.
type Clock interface {
	// Now returns the time elapsed since the clock's origin.
	Now() Time
	// Every calls fn at now+d, now+2d, … until the returned stop is
	// called. After stop returns, fn is not running and will not run
	// again. d must be positive.
	Every(d time.Duration, fn func()) (stop func())
}

// Every implements Clock on virtual time: fn runs as a kernel event, and
// each run schedules the next, so ticks interleave with the scenario's
// other events in the usual (time, sequence) order. stop may be called
// from fn.
func (k *Kernel) Every(d time.Duration, fn func()) (stop func()) {
	var next Event
	stopped := false
	var tick func()
	tick = func() {
		fn()
		if !stopped {
			next = k.After(d, tick)
		}
	}
	next = k.After(d, tick)
	return func() {
		stopped = true
		next.Cancel()
	}
}

// WallClock is the Clock of a live process: Now is the monotonic time
// since the process started, Every ticks on a goroutine. Wall is its
// only instance, so everything a process timestamps — spans, bus
// records, sampler windows, exemplars — shares one origin.
type WallClock struct {
	start time.Time
}

// Wall is the process clock.
var Wall = &WallClock{start: time.Now()}

// Now implements Clock.
func (w *WallClock) Now() Time { return time.Since(w.start) }

// At converts an instant already read with time.Now into the clock's
// domain, for hot paths that must not read the clock twice.
func (w *WallClock) At(t time.Time) Time { return t.Sub(w.start) }

// WallTime returns the absolute time; the events bus stamps it on
// records when its clock has one.
func (w *WallClock) WallTime() time.Time { return time.Now() }

// Every implements Clock with a ticker goroutine. stop waits for the
// goroutine to exit, so it must not be called from fn.
func (w *WallClock) Every(d time.Duration, fn func()) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}
