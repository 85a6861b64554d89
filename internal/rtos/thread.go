package rtos

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Thread is a simulated kernel thread. It executes the function passed to
// Host.Spawn on its own simulation process; inside that function it may
// block on Compute, Sleep, mutexes and any sim primitives, and everything
// it does is serialised by the host's CPU scheduler.
type Thread struct {
	host      *Host
	name      string
	proc      *sim.Proc
	base      Priority
	inherited Priority // ceiling donated by priority-inheritance mutexes
	reserve   *Reserve

	// A thread has at most one Compute outstanding, so its demand and
	// the signal that ends the wait live in the thread and are reused.
	job      job
	computed sim.Signal
}

// Host returns the thread's host.
func (t *Thread) Host() *Host { return t.host }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Proc returns the underlying simulation process; use it to block on
// sim.Signal / sim.Queue primitives from thread code.
func (t *Thread) Proc() *sim.Proc { return t.proc }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.host.k.Now() }

// Priority returns the thread's base native priority.
func (t *Thread) Priority() Priority { return t.base }

// CurrentPriority returns the effective native priority: the base plus
// any priority-inheritance boost from mutexes the thread holds.
func (t *Thread) CurrentPriority() Priority {
	if t.inherited > t.base {
		return t.inherited
	}
	return t.base
}

// SetPriority changes the thread's base priority (clamped to the host
// range) and triggers a scheduling decision.
func (t *Thread) SetPriority(p Priority) {
	t.base = t.host.clamp(p)
	t.host.cpu.reschedule()
}

// Reserve returns the CPU reservation the thread is attached to, or nil.
func (t *Thread) Reserve() *Reserve { return t.reserve }

// Compute consumes d of CPU time on the host's processor, blocking the
// thread until the scheduler has actually delivered that much time under
// contention. The elapsed virtual time is therefore >= d.
func (t *Thread) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	t.job.remaining = d
	t.host.cpu.add(&t.job)
	t.computed.Wait(t.proc)
}

// ComputeCycles consumes n CPU cycles, converted via the host clock rate.
func (t *Thread) ComputeCycles(n float64) {
	if n <= 0 {
		return
	}
	t.Compute(time.Duration(n / t.host.cfg.Hz * float64(time.Second)))
}

// Sleep suspends the thread for d of virtual time without consuming CPU.
func (t *Thread) Sleep(d time.Duration) { t.proc.Sleep(d) }

// String implements fmt.Stringer.
func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s/%s prio=%d)", t.host.name, t.name, t.base)
}

// Mutex is an intra-process lock with priority inheritance: while a
// higher-priority thread waits, the owner runs at the waiter's priority,
// bounding priority-inversion time as RT-CORBA's standardized mutexes do.
// Inheritance is single-level, which is sufficient for the lock usage in
// this codebase (no nested critical sections across threads).
type Mutex struct {
	host    *Host
	owner   *Thread
	waiters []*mutexWaiter
	noPI    bool
}

type mutexWaiter struct {
	t   *Thread
	sig *sim.Signal
}

// NewMutex creates a mutex for threads of host h.
func NewMutex(h *Host) *Mutex { return &Mutex{host: h} }

// NewMutexNoPI creates a mutex WITHOUT priority inheritance — the
// classic inversion-prone lock. It is the "without" side of the
// priority-inheritance claim in experiments.Ablations.
func NewMutexNoPI(h *Host) *Mutex { return &Mutex{host: h, noPI: true} }

// Lock acquires the mutex for t, blocking while another thread holds it.
// Waiters are granted the lock in priority order.
func (m *Mutex) Lock(t *Thread) {
	if m.owner == t {
		panic("rtos: recursive Mutex.Lock by " + t.name)
	}
	if m.owner == nil {
		m.owner = t
		return
	}
	w := &mutexWaiter{t: t, sig: sim.NewSignal()}
	m.waiters = append(m.waiters, w)
	m.updateInheritance()
	w.sig.Wait(t.proc)
}

// Unlock releases the mutex, handing it to the highest-priority waiter.
func (m *Mutex) Unlock(t *Thread) {
	if m.owner != t {
		panic("rtos: Mutex.Unlock by non-owner " + t.name)
	}
	// Drop any inherited boost this mutex gave the releasing thread.
	t.inherited = 0
	m.owner = nil
	if len(m.waiters) == 0 {
		m.host.cpu.reschedule()
		return
	}
	// Highest current priority wins; FIFO among equals.
	best := 0
	for i, w := range m.waiters {
		if w.t.CurrentPriority() > m.waiters[best].t.CurrentPriority() {
			best = i
		}
	}
	w := m.waiters[best]
	m.waiters = append(m.waiters[:best], m.waiters[best+1:]...)
	m.owner = w.t
	m.updateInheritance()
	w.sig.Broadcast()
	m.host.cpu.reschedule()
}

// updateInheritance donates the highest waiter priority to the owner.
func (m *Mutex) updateInheritance() {
	if m.owner == nil || m.noPI {
		m.host.cpu.reschedule()
		return
	}
	var top Priority
	for _, w := range m.waiters {
		if p := w.t.CurrentPriority(); p > top {
			top = p
		}
	}
	if top > m.owner.inherited {
		m.owner.inherited = top
	}
	m.host.cpu.reschedule()
}
