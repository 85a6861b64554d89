// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing scheduled events in
// timestamp order; ties are broken by scheduling sequence so runs are fully
// reproducible. On top of the raw event queue the package offers a
// cooperative process model (see Proc): each process is a goroutine that
// runs exclusively while every other process is parked, which lets
// higher-level code (the simulated OS, network, and middleware) be written
// in a natural blocking style while remaining deterministic.
//
// All simulated subsystems in this repository — the rtos scheduler, the
// netsim network, the ORB and the QuO contracts — share one Kernel per
// scenario, so a single Run drives the entire distributed system.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. The zero Time is the instant the scenario begins.
type Time = time.Duration

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	index    int // heap index, -1 when not queued
	canceled bool
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op.
func (e *Event) Cancel() {
	e.canceled = true
}

// Canceled reports whether Cancel has been called.
func (e *Event) Canceled() bool { return e.canceled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel is the event loop at the heart of a simulation scenario.
// The zero value is not usable; construct one with NewKernel.
//
// A Kernel is not safe for concurrent use: all interaction must happen
// from the goroutine running Run (i.e. from event callbacks and processes).
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	rng     *rand.Rand
	stopped bool
	procs   int // live process count, for leak detection
	tracer  func(t Time, format string, args ...any)
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

// SetTracer installs a debug trace sink. A nil tracer disables tracing.
func (k *Kernel) SetTracer(fn func(t Time, format string, args ...any)) {
	k.tracer = fn
}

// Tracef emits a debug trace line if a tracer is installed.
func (k *Kernel) Tracef(format string, args ...any) {
	if k.tracer != nil {
		k.tracer(k.now, format, args...)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, k.now))
	}
	k.seq++
	e := &Event{at: t, seq: k.seq, fn: fn, index: -1}
	heap.Push(&k.events, e)
	return e
}

// After schedules fn to run d from now. Negative d panics.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	return k.At(k.now+d, fn)
}

// Soon schedules fn to run at the current time, after all events already
// queued for this instant. It is the mechanism processes use to hand work
// to each other without nesting resumptions.
func (k *Kernel) Soon(fn func()) *Event {
	return k.At(k.now, fn)
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the single next event, advancing the clock. It returns
// false when the queue is empty.
func (k *Kernel) Step() bool {
	for k.events.Len() > 0 {
		e := heap.Pop(&k.events).(*Event)
		if e.canceled {
			continue
		}
		k.now = e.at
		e.fn()
		return true
	}
	return false
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
	for !k.stopped {
		next := k.peek()
		if next == nil || next.at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

func (k *Kernel) peek() *Event {
	for k.events.Len() > 0 {
		e := k.events[0]
		if !e.canceled {
			return e
		}
		heap.Pop(&k.events)
	}
	return nil
}

// Pending reports the number of queued (non-cancelled) events.
func (k *Kernel) Pending() int {
	n := 0
	for _, e := range k.events {
		if !e.canceled {
			n++
		}
	}
	return n
}

// LiveProcs reports how many processes have started but not yet finished.
// Useful in tests to detect leaked processes.
func (k *Kernel) LiveProcs() int { return k.procs }
