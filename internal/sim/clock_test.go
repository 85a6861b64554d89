package sim

import (
	"reflect"
	"testing"
	"time"
)

// TestKernelEveryTicksUntilStopped pins the virtual-time Clock: ticks
// land at now+d, now+2d, …, and stopping cancels the pending tick so
// nothing is left on the event queue.
func TestKernelEveryTicksUntilStopped(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(5 * time.Millisecond) // a nonzero origin
	var at []Time
	stop := k.Every(10*time.Millisecond, func() { at = append(at, k.Now()) })
	k.RunUntil(37 * time.Millisecond)
	want := []Time{15 * time.Millisecond, 25 * time.Millisecond, 35 * time.Millisecond}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	stop()
	if n := k.Pending(); n != 0 {
		t.Fatalf("%d events still pending after stop", n)
	}
	k.RunUntil(time.Second)
	if len(at) != len(want) {
		t.Fatalf("ticked after stop: %v", at)
	}
}

// TestKernelEveryStopFromCallback pins that a tick may stop its own
// schedule: the stopping tick is the last, and no successor is queued.
func TestKernelEveryStopFromCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var stop func()
	stop = k.Every(time.Millisecond, func() {
		if n++; n == 3 {
			stop()
		}
	})
	k.Run()
	if n != 3 || k.Pending() != 0 {
		t.Fatalf("ran %d ticks with %d pending, want 3 and 0", n, k.Pending())
	}
}

// TestWallEveryStopWaitsForTick pins the wall Clock's stop contract:
// stop does not return while a tick is still running, and no tick runs
// after it returned — which is what lets callers tear down whatever the
// tick touches.
func TestWallEveryStopWaitsForTick(t *testing.T) {
	entered := make(chan bool)
	release := make(chan bool)
	ticks := 0 // touched only by the ticker goroutine until stop returns
	stop := Wall.Every(time.Millisecond, func() {
		if ticks++; ticks == 1 {
			close(entered)
			<-release
		}
	})
	<-entered

	stopped := make(chan bool)
	go func() { stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("stop returned while a tick was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not return after the tick finished")
	}
	n := ticks
	time.Sleep(10 * time.Millisecond)
	if ticks != n {
		t.Fatalf("ticked after stop returned: %d -> %d", n, ticks)
	}
	stop() // idempotent
}

// TestWallClockAt pins that At and Now share one origin.
func TestWallClockAt(t *testing.T) {
	before := Wall.Now()
	at := Wall.At(time.Now())
	after := Wall.Now()
	if at < before || at > after {
		t.Fatalf("At = %v, want within [%v, %v]", at, before, after)
	}
}
