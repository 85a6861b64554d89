package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledGoroutines reads runtime.NumGoroutine once exiting goroutines
// have had a chance to finish exiting.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestLifecycleCloseUnwindsProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	sig := NewSignal()
	q := NewQueue[int]()
	var unwound []string
	spawn := func(name string, body func(p *Proc)) {
		k.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			body(p)
		})
	}
	spawn("server", func(p *Proc) { // the usual leak: a loop that never returns
		for {
			q.Get(p)
		}
	})
	spawn("waiter", func(p *Proc) { sig.WaitTimeout(p, time.Hour) })
	spawn("sleeper", func(p *Proc) {
		// A deferred call that schedules and one that blocks: the first
		// is dropped, the second unwinds again.
		defer k.After(time.Second, func() { t.Error("an event scheduled during Close fired") })
		defer p.Sleep(time.Second)
		p.Sleep(time.Hour)
	})
	spawn("finished", func(p *Proc) {})
	k.RunUntil(time.Minute)
	spawn("never-started", func(p *Proc) { t.Error("a process started during Close") })
	if len(k.live) != 4 {
		t.Fatalf("%d live processes before Close, want 4", len(k.live))
	}

	k.Close()
	if got := strings.Join(unwound, " "); got != "finished sleeper waiter server" {
		t.Fatalf("deferred calls ran as %q, want the finished process then the blocked ones, newest first", got)
	}
	if len(k.live) != 0 || k.Pending() != 0 {
		t.Fatalf("after Close: %d live processes, Pending() = %d, want 0, 0", len(k.live), k.Pending())
	}
	k.Run() // nothing left to fire
	k.Close()
	if n := settledGoroutines(before); n != before {
		t.Fatalf("%d goroutines after Close, %d before the scenario", n, before)
	}
}

func TestLifecycleProcessPanicReachesRun(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	k.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	k.Go("faulty", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("Run panicked with %v, want the process's own panic value", r)
			}
		}()
		k.Run()
		t.Error("Run returned although a process panicked")
	}()
	if len(k.live) != 1 {
		t.Fatalf("%d live processes after the panic, want 1 (the bystander)", len(k.live))
	}
	k.Close()
	if n := settledGoroutines(before); n != before {
		t.Fatalf("%d goroutines after Close, %d before the scenario", n, before)
	}
}
