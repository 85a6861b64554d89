package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkNoLeakedGoroutines fails t if more goroutines run than before,
// once exiting ones have had up to 3 s to finish, and dumps every stack.
// Fewer is no failure: a goroutine counted in before, one an earlier
// test started that was still on its way out, may exit meanwhile, and a
// leak never makes the count fall.
func checkNoLeakedGoroutines(t *testing.T, before int, when string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d goroutines %s, %d before\n%s", n, when, before, buf[:runtime.Stack(buf, true)])
	}
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
	checkNoLeakedGoroutines(t, before, "after Close")
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
	checkNoLeakedGoroutines(t, before, "after Close")
}
