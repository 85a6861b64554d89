// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing scheduled events in
// timestamp order; ties are broken by scheduling sequence so runs are fully
// reproducible. On top of the raw event queue the package offers a
// cooperative process model (see Proc): each process is a coroutine that
// the kernel switches to from an event callback and that switches back
// when it blocks, which lets higher-level code (the simulated OS, network,
// and middleware) be written in a natural blocking style while remaining
// deterministic. Everything — callbacks and processes — runs on the
// goroutine that calls Run; nothing in a scenario runs in parallel.
//
// All simulated subsystems in this repository — the rtos scheduler, the
// netsim network, the ORB and the QuO contracts — share one Kernel per
// scenario, so a single Run drives the entire distributed system. Whoever
// creates a Kernel calls Close when the scenario is over: processes still
// blocked at that point (servers, monitors, anything written as a loop)
// are unwound and their coroutines released; without Close they stay
// parked forever and pin everything the scenario built.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. The zero Time is the instant the scenario begins.
type Time = time.Duration

// Event is a handle on a scheduled callback, good for cancelling it. It
// is a small value: discarding it costs nothing, the zero Event refers to
// no callback, and a handle kept past the firing or cancellation of its
// callback goes stale rather than dangling — the kernel recycles the slot
// under a new generation, which the old handle no longer matches.
type Event struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing and removes it from the queue.
// Cancelling the zero Event, or an event that already fired or was
// already cancelled, is a no-op.
func (e Event) Cancel() {
	if e.k == nil {
		return
	}
	if s := e.k.slots[e.slot]; s.gen == e.gen {
		e.k.remove(int(s.pos))
	}
}

// entry is one queued event, stored by value in the heap.
type entry struct {
	at   Time
	seq  uint64
	fn   func()
	slot int32
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// slot is what a handle points at: which incarnation of the slot is in
// use (bumped each time its entry fires or is cancelled, so a handle
// matches only while its own entry is queued) and where that entry sits
// in the heap.
type slot struct {
	pos int32
	gen uint32
}

// Kernel is the event loop at the heart of a simulation scenario.
// The zero value is not usable; construct one with NewKernel.
//
// A Kernel is not safe for concurrent use: all interaction must happen
// from the goroutine running Run (i.e. from event callbacks and processes).
type Kernel struct {
	now     Time
	seq     uint64
	heap    []entry // binary min-heap on (at, seq)
	slots   []slot
	free    []int32 // recycled slot numbers
	rng     *rand.Rand
	stopped bool
	live    []*Proc // started or startable, not yet finished
}

// NewKernel returns a kernel whose deterministic random stream is seeded
// with seed. Two kernels with the same seed and the same scenario produce
// bit-identical schedules.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. All stochastic
// behaviour in a scenario (jitter, drop decisions, load bursts) must draw
// from this source to keep runs reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, k.now))
	}
	k.seq++
	var s int32
	if n := len(k.free); n > 0 {
		s = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		s = int32(len(k.slots))
		k.slots = append(k.slots, slot{})
	}
	k.heap = append(k.heap, entry{})
	k.up(len(k.heap)-1, entry{at: t, seq: k.seq, fn: fn, slot: s})
	return Event{k: k, slot: s, gen: k.slots[s].gen}
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	return k.At(k.now+d, fn)
}

// Soon schedules fn to run at the current time, after all events already
// queued for this instant. It is the mechanism processes use to hand work
// to each other without nesting resumptions.
func (k *Kernel) Soon(fn func()) Event {
	return k.At(k.now, fn)
}

// up places e at or above heap position i, shifting later entries down.
func (k *Kernel) up(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&k.heap[parent]) {
			break
		}
		k.set(i, k.heap[parent])
		i = parent
	}
	k.set(i, e)
}

// down places e at or below heap position i, shifting earlier entries up.
func (k *Kernel) down(i int, e entry) {
	n := len(k.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && k.heap[r].before(&k.heap[child]) {
			child = r
		}
		if !k.heap[child].before(&e) {
			break
		}
		k.set(i, k.heap[child])
		i = child
	}
	k.set(i, e)
}

func (k *Kernel) set(i int, e entry) {
	k.heap[i] = e
	k.slots[e.slot].pos = int32(i)
}

// remove takes the entry at heap position i out of the queue and retires
// its slot, so every handle on it goes stale.
func (k *Kernel) remove(i int) {
	k.slots[k.heap[i].slot].gen++
	k.free = append(k.free, k.heap[i].slot)

	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap[n] = entry{} // drop the callback reference
	k.heap = k.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&k.heap[(i-1)/2]) {
		k.up(i, last)
	} else {
		k.down(i, last)
	}
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the single next event, advancing the clock. It returns
// false when the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	e := k.heap[0]
	k.remove(0)
	k.now = e.at
	e.fn()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
// Events scheduled exactly at t do fire.
func (k *Kernel) RunUntil(t Time) {
	k.stopped = false
	for !k.stopped && len(k.heap) > 0 && k.heap[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.heap) }

// Close ends the scenario: every unfinished process is unwound — its
// deferred calls run, then its coroutine exits — and every queued event is
// dropped, including anything those deferred calls scheduled. Afterwards
// no process is live, Pending is 0 and nothing the kernel created is left
// running. Close is idempotent. It must be called from outside the
// kernel's own callbacks and processes, normally deferred by whoever
// called NewKernel.
func (k *Kernel) Close() {
	// Newest first, like deferred calls; a process spawned by an
	// unwinding one lands at the end and is taken next.
	for n := len(k.live); n > 0; n = len(k.live) {
		k.live[n-1].kill()
	}
	for len(k.heap) > 0 {
		k.remove(len(k.heap) - 1)
	}
}
