package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(30*time.Millisecond, func() { got = append(got, 3) })
	k.After(10*time.Millisecond, func() { got = append(got, 1) })
	k.After(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.After(time.Millisecond, func() { fired = true })
	e.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after Cancel, want 0", k.Pending())
	}
	e.Cancel() // stale handle: no-op
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.After(time.Millisecond, func() { n++; k.Stop() })
	k.After(2*time.Millisecond, func() { n++ })
	k.Run()
	if n != 1 {
		t.Fatalf("ran %d events, want 1 (Stop should halt the loop)", n)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var wake Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 42*time.Millisecond {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
	if len(k.live) != 0 {
		t.Fatalf("%d live processes, want 0", len(k.live))
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.Go("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, "a")
			p.Sleep(10 * time.Millisecond)
		}
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		for i := 0; i < 3; i++ {
			got = append(got, "b")
			p.Sleep(10 * time.Millisecond)
		}
	})
	k.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaving = %v, want %v", got, want)
		}
	}
}

func TestSignalPulseWakesOne(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal()
	woken := 0
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.After(time.Millisecond, func() { s.Pulse() })
	k.Run()
	if woken != 1 {
		t.Fatalf("Pulse woke %d procs, want 1", woken)
	}
	if s.waiters.Len() != 2 {
		t.Fatalf("Waiting() = %d, want 2", s.waiters.Len())
	}
	// Drain remaining waiters so the test leaves no stuck goroutines.
	s.Broadcast()
	k.Run()
	if woken != 3 {
		t.Fatalf("Broadcast left woken = %d, want 3", woken)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal()
	var ok bool
	var at Time
	k.Go("w", func(p *Proc) {
		ok = s.WaitTimeout(p, 20*time.Millisecond)
		at = p.Now()
	})
	k.Run()
	if ok {
		t.Fatal("WaitTimeout reported woken, want timeout")
	}
	if at != 20*time.Millisecond {
		t.Fatalf("timed out at %v, want 20ms", at)
	}
	if s.waiters.Len() != 0 {
		t.Fatalf("timed-out waiter still enqueued: Waiting() = %d", s.waiters.Len())
	}
}

func TestSignalWakeBeatsTimeout(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal()
	var ok bool
	k.Go("w", func(p *Proc) {
		ok = s.WaitTimeout(p, 20*time.Millisecond)
	})
	k.After(10*time.Millisecond, func() { s.Pulse() })
	k.Run()
	if !ok {
		t.Fatal("WaitTimeout reported timeout, want woken")
	}
}

func TestQueueFIFO(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int]()
	var got []int
	k.Go("c", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	k.After(time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			q.Put(i)
		}
	})
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("queue order = %v", got)
		}
	}
}

func TestQueueGetTimeout(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string]()
	var v string
	var ok bool
	k.Go("c", func(p *Proc) {
		v, ok = q.GetTimeout(p, 10*time.Millisecond)
	})
	k.Run()
	if ok || v != "" {
		t.Fatalf("GetTimeout = (%q, %v), want timeout", v, ok)
	}

	k2 := NewKernel(1)
	q2 := NewQueue[string]()
	k2.Go("c", func(p *Proc) {
		v, ok = q2.GetTimeout(p, 10*time.Millisecond)
	})
	k2.After(5*time.Millisecond, func() { q2.Put("hi") })
	k2.Run()
	if !ok || v != "hi" {
		t.Fatalf("GetTimeout = (%q, %v), want (hi, true)", v, ok)
	}
}

func TestBoundedQueueRejects(t *testing.T) {
	q := NewBoundedQueue[int](2)
	if !q.Put(1) || !q.Put(2) {
		t.Fatal("puts within bound rejected")
	}
	if q.Put(3) {
		t.Fatal("put beyond bound accepted")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := NewKernel(7)
		var ticks []time.Duration
		for i := 0; i < 4; i++ {
			k.Go("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					ticks = append(ticks, p.Now())
				}
			})
		}
		k.Run()
		return ticks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the maximum delay.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel(3)
		var fired []Time
		var maxT Time
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			if at > maxT {
				maxT = at
			}
			k.At(at, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || k.Now() == maxT
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a queue delivers exactly the items put, in order, regardless
// of producer/consumer timing.
func TestQueueOrderProperty(t *testing.T) {
	prop := func(items []int8, gaps []uint8) bool {
		k := NewKernel(5)
		q := NewQueue[int8]()
		var got []int8
		k.Go("producer", func(p *Proc) {
			for i, v := range items {
				if len(gaps) > 0 {
					p.Sleep(time.Duration(gaps[i%len(gaps)]) * time.Microsecond)
				}
				q.Put(v)
			}
		})
		k.Go("consumer", func(p *Proc) {
			for range items {
				got = append(got, q.Get(p))
			}
		})
		k.Run()
		if len(got) != len(items) {
			return false
		}
		for i := range items {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
