package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// scheduler is what the random program below needs of an event queue;
// the kernel and the reference model both provide it.
type scheduler struct {
	now   func() Time
	at    func(t Time, fn func()) (cancel func())
	after func(d time.Duration, fn func()) (cancel func())
	soon  func(fn func()) (cancel func())
	step  func() bool
	queue func() int
}

func kernelScheduler(k *Kernel) scheduler {
	return scheduler{
		now:   k.Now,
		at:    func(t Time, fn func()) func() { return k.At(t, fn).Cancel },
		after: func(d time.Duration, fn func()) func() { return k.After(d, fn).Cancel },
		soon:  func(fn func()) func() { return k.Soon(fn).Cancel },
		step:  k.Step,
		queue: k.Pending,
	}
}

// refKernel is the specification: events in the order scheduled, the
// next one found by a stable sort on time.
type refKernel struct {
	now  Time
	evs  []*refEvent
	live int
}

type refEvent struct {
	at   Time
	fn   func()
	gone bool // fired or cancelled
}

func (r *refKernel) at(t Time, fn func()) func() {
	if t < r.now {
		panic("reference: scheduling in the past")
	}
	e := &refEvent{at: t, fn: fn}
	r.evs = append(r.evs, e)
	r.live++
	return func() {
		if !e.gone {
			e.gone = true
			r.live--
		}
	}
}

func (r *refKernel) step() bool {
	r.evs = slices.DeleteFunc(r.evs, func(e *refEvent) bool { return e.gone })
	if len(r.evs) == 0 {
		return false
	}
	// Survivors keep their scheduling order, so a stable sort on time
	// alone yields (time, sequence) order.
	sort.SliceStable(r.evs, func(i, j int) bool { return r.evs[i].at < r.evs[j].at })
	e := r.evs[0]
	e.gone = true
	r.live--
	r.now = e.at
	e.fn()
	return true
}

func refScheduler() scheduler {
	r := &refKernel{}
	return scheduler{
		now:   func() Time { return r.now },
		at:    r.at,
		after: func(d time.Duration, fn func()) func() { return r.at(r.now+d, fn) },
		soon:  func(fn func()) func() { return r.at(r.now, fn) },
		step:  r.step,
		queue: func() int { return r.live },
	}
}

type firing struct {
	id int
	at Time
}

// randomProgram performs ops random operations on s — scheduling through
// all three entry points with many ties, cancelling handles drawn from
// the whole history (so: live ones, fired ones, ones cancelled before,
// ones whose slot has been recycled since), stepping, and doing all of
// that again from inside callbacks — and returns what fired, in order.
// Its choices depend only on seed and on that order, so two correct
// schedulers produce the same log.
func randomProgram(s scheduler, seed int64, ops int) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	var cancels []func()
	nextID := 0

	var schedule func()
	cancelOne := func() {
		if len(cancels) > 0 {
			cancels[rng.Intn(len(cancels))]()
		}
	}
	schedule = func() {
		ops--
		id := nextID
		nextID++
		fn := func() {
			log = append(log, firing{id, s.now()})
			for rng.Intn(3) == 0 && ops > 0 {
				schedule()
			}
			if rng.Intn(4) == 0 {
				ops--
				cancelOne()
			}
		}
		// Few distinct delays: most events tie with others.
		d := time.Duration(rng.Intn(8)) * time.Microsecond
		var cancel func()
		switch rng.Intn(3) {
		case 0:
			cancel = s.at(s.now()+d, fn)
		case 1:
			cancel = s.after(d, fn)
		default:
			cancel = s.soon(fn)
		}
		cancels = append(cancels, cancel)
	}

	for ops > 0 {
		// Hover around a few hundred queued events.
		switch r := rng.Intn(10); {
		case s.queue() < 64 || (r < 3 && s.queue() < 512):
			schedule()
		case r < 5:
			ops--
			cancelOne()
		default:
			ops--
			s.step()
		}
	}
	for s.step() {
	}
	return log
}

// TestKernelMatchesReferenceOrder is the equivalence check for the event
// heap: 10^5 random operations fire in exactly the reference's order.
func TestKernelMatchesReferenceOrder(t *testing.T) {
	const ops = 100_000
	for _, seed := range []int64{1, 7, 2024} {
		k := NewKernel(seed)
		got := randomProgram(kernelScheduler(k), seed, ops)
		want := randomProgram(refScheduler(), seed, ops)
		if len(got) < ops/10 {
			t.Fatalf("seed %d: only %d events fired; the program is not exercising the queue", seed, len(got))
		}
		if !slices.Equal(got, want) {
			n := min(len(got), len(want))
			for i := 0; i < n; i++ {
				if got[i] != want[i] {
					t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d events fired, reference %d", seed, len(got), len(want))
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: Pending() = %d after draining", seed, k.Pending())
		}
	}
}

// A handle must stay harmless for as long as anyone keeps it.
func TestStaleHandleCancelsNothing(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	count := func() { fired++ }

	old := k.After(time.Millisecond, count)
	k.Run() // fires; the slot is free again
	reused := k.After(time.Millisecond, count)
	if reused.slot != old.slot {
		t.Fatalf("slot %d not reused (got %d); the test needs a recycled slot", old.slot, reused.slot)
	}
	old.Cancel() // cancel-after-fire on a recycled slot
	if k.Pending() != 1 {
		t.Fatal("a stale handle cancelled the slot's new event")
	}
	reused.Cancel()
	reused.Cancel() // cancel-twice
	again := k.After(time.Millisecond, count)
	reused.Cancel() // and once more now that the slot is taken again
	if k.Pending() != 1 {
		t.Fatal("a cancelled handle cancelled the slot's next event")
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	again.Cancel()
	Event{}.Cancel() // the zero handle refers to nothing
}

// RunUntil and Pending see cancellations at once: nothing stays queued
// behind a cancelled event.
func TestCancelLeavesNoTombstone(t *testing.T) {
	k := NewKernel(1)
	var timer Event
	rearm := func() {
		timer.Cancel()
		timer = k.After(time.Second, func() {})
	}
	for i := 0; i < 1000; i++ { // an RTO timer re-armed per ack
		rearm()
	}
	if k.Pending() != 1 || len(k.slots) > 2 {
		t.Fatalf("1000 re-arms left %d events in %d slots, want 1 in at most 2", k.Pending(), len(k.slots))
	}
	timer.Cancel()
	k.RunUntil(time.Minute)
	if k.Now() != time.Minute {
		t.Fatalf("Now() = %v, want 1m", k.Now())
	}
}

func TestRingOrderAndRemoveAt(t *testing.T) {
	var r Ring[int]
	next, want := 0, []int(nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		switch {
		case len(want) == 0 || (len(want) < 40 && rng.Intn(2) == 0):
			r.Push(next)
			want = append(want, next)
			next++
		case rng.Intn(4) == 0:
			j := rng.Intn(len(want))
			if got := r.RemoveAt(j); got != want[j] {
				t.Fatalf("RemoveAt(%d) = %d, want %d", j, got, want[j])
			}
			want = slices.Delete(want, j, j+1)
		default:
			if got := r.Pop(); got != want[0] {
				t.Fatalf("Pop() = %d, want %d", got, want[0])
			}
			want = want[1:]
		}
		if r.Len() != len(want) {
			t.Fatalf("Len() = %d, want %d", r.Len(), len(want))
		}
		for j, v := range want {
			if r.At(j) != v {
				t.Fatalf("At(%d) = %d, want %d", j, r.At(j), v)
			}
		}
	}
	if len(r.buf) > 64 {
		t.Fatalf("a ring that never held more than 40 items grew to %d slots", len(r.buf))
	}
}

// TestRingReleasesVacatedSlots: Pop and RemoveAt zero the slot they vacate
// and Set overwrites in place, so a ring that keeps its array holds
// exactly its live items and never pins one it gave back — a pub/sub
// outbox's delivered and evicted events among them.
func TestRingReleasesVacatedSlots(t *testing.T) {
	var r Ring[*int]
	var want []*int
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5_000; i++ {
		switch op := rng.Intn(8); {
		case len(want) == 0 || (len(want) < 20 && op < 4):
			v := i
			r.Push(&v)
			want = append(want, &v)
		case op == 4:
			j := rng.Intn(len(want))
			v := -i
			r.Set(j, &v)
			want[j] = &v
		case op == 5:
			j := rng.Intn(len(want))
			if got := r.RemoveAt(j); got != want[j] {
				t.Fatalf("RemoveAt(%d) = %p, want %p", j, got, want[j])
			}
			want = slices.Delete(want, j, j+1)
		default:
			if got := r.Pop(); got != want[0] {
				t.Fatalf("Pop() = %p, want %p", got, want[0])
			}
			want = want[1:]
		}
		held := 0
		for _, p := range r.buf {
			if p != nil {
				held++
			}
		}
		if held != len(want) {
			t.Fatalf("step %d: the array holds %d items, the ring %d: a vacated slot still pins its item", i, held, len(want))
		}
		for j, p := range want {
			if r.At(j) != p {
				t.Fatalf("step %d: At(%d) = %p, want %p", i, j, r.At(j), p)
			}
		}
	}
}
