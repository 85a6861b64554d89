package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated process: a goroutine that executes in lockstep with
// the kernel. At any instant at most one process runs; all others are
// parked waiting for the kernel to resume them, which keeps the simulation
// deterministic even though processes are real goroutines.
//
// A process interacts with virtual time exclusively through its Proc
// handle: Sleep, Yield, and the blocking operations on Signal and Queue.
// Calling those methods from any goroutine other than the process's own
// corrupts the handoff protocol and panics.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	parked chan struct{}
	dead   bool
}

// Go spawns a process running fn. The process starts at the current
// virtual instant, after already-queued events for this instant.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	k.procs++
	go func() {
		<-p.resume // wait for the start event
		defer func() {
			p.dead = true
			k.procs--
			// Return control to the kernel for the last time.
			p.parked <- struct{}{}
		}()
		fn(p)
	}()
	k.Soon(func() { p.step() })
	return p
}

// step transfers control to the process goroutine and waits for it to park
// again (or exit). It must only be called from the kernel goroutine, i.e.
// from inside an event callback.
func (p *Proc) step() {
	if p.dead {
		return
	}
	p.resume <- struct{}{}
	<-p.parked
}

// park returns control to the kernel and blocks until another event
// resumes this process.
func (p *Proc) park() {
	p.parked <- struct{}{}
	<-p.resume
}

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %s", d, p.name))
	}
	if d == 0 {
		p.Yield()
		return
	}
	p.k.After(d, func() { p.step() })
	p.park()
}

// Yield reschedules the process behind all events queued for the current
// instant, letting same-time work interleave fairly.
func (p *Proc) Yield() {
	p.k.Soon(func() { p.step() })
	p.park()
}

// Waitable is anything a process can block on with an optional timeout.
type Waitable interface {
	// enqueue registers w; the waitable later wakes it via w.wake.
	enqueue(w *waiter)
	// dequeue removes w after a timeout won the race.
	dequeue(w *waiter)
}

// waiter links a blocked process to the waitable it sleeps on.
type waiter struct {
	p     *Proc
	fired bool // set when either the wake or the timeout has claimed it
	timer *Event
	ok    bool // result: true = woken by the waitable, false = timed out
}

// wake is called by the waitable's owner (from kernel context) to release
// the waiter. It is idempotent against the timeout path.
func (w *waiter) wake() {
	if w.fired {
		return
	}
	w.fired = true
	w.ok = true
	if w.timer != nil {
		w.timer.Cancel()
	}
	w.p.k.Soon(func() { w.p.step() })
}

// block parks p until wake or until the timeout elapses. timeout < 0 means
// wait forever. It reports whether the wait was satisfied (vs timed out).
func block(p *Proc, wt Waitable, timeout time.Duration) bool {
	w := &waiter{p: p}
	wt.enqueue(w)
	if timeout >= 0 {
		w.timer = p.k.After(timeout, func() {
			if w.fired {
				return
			}
			w.fired = true
			w.ok = false
			wt.dequeue(w)
			p.k.Soon(func() { p.step() })
		})
	}
	p.park()
	return w.ok
}

// Signal is a broadcast/wakeup primitive: processes block on Wait and are
// released one at a time (Pulse) or all at once (Broadcast). There is no
// memory: a Pulse with no waiters is lost, like a condition variable.
type Signal struct {
	waiters []*waiter
}

// NewSignal returns an empty signal.
func NewSignal() *Signal { return &Signal{} }

func (s *Signal) enqueue(w *waiter) { s.waiters = append(s.waiters, w) }

func (s *Signal) dequeue(w *waiter) {
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Wait blocks the calling process until Pulse or Broadcast.
func (s *Signal) Wait(p *Proc) { block(p, s, -1) }

// WaitTimeout blocks until woken or until d elapses; it reports whether
// the process was woken (true) rather than timed out (false).
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	return block(p, s, d)
}

// Pulse wakes the longest-waiting process, if any.
func (s *Signal) Pulse() {
	if len(s.waiters) == 0 {
		return
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	w.wake()
}

// Broadcast wakes every waiting process.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		w.wake()
	}
}

// Waiting reports how many processes are blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Queue is an unbounded FIFO of items with blocking receive, the standard
// mailbox between simulated processes (socket receive buffers, thread-pool
// request queues, and so on).
type Queue[T any] struct {
	items []T
	sig   Signal
	limit int // 0 = unbounded; otherwise Put beyond limit reports false
}

// NewQueue returns an unbounded queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// NewBoundedQueue returns a queue that rejects items beyond limit.
func NewBoundedQueue[T any](limit int) *Queue[T] { return &Queue[T]{limit: limit} }

// Put appends an item, waking one waiting receiver. It reports false if a
// bound is configured and the queue is full (the item is discarded).
func (q *Queue[T]) Put(v T) bool {
	if q.limit > 0 && len(q.items) >= q.limit {
		return false
	}
	q.items = append(q.items, v)
	q.sig.Pulse()
	return true
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Get blocks the calling process until an item is available.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.TryGet(); ok {
			return v
		}
		q.sig.Wait(p)
	}
}

// GetTimeout blocks for at most d; ok is false on timeout.
func (q *Queue[T]) GetTimeout(p *Proc, d time.Duration) (T, bool) {
	deadline := p.Now() + d
	for {
		if v, ok := q.TryGet(); ok {
			return v, true
		}
		remain := deadline - p.Now()
		if remain < 0 {
			remain = 0
		}
		if !q.sig.WaitTimeout(p, remain) {
			var zero T
			// One last poll: an item may have landed exactly at the deadline.
			if v, ok := q.TryGet(); ok {
				return v, true
			}
			return zero, false
		}
	}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Min returns the least queued item under less without removing it.
// Ties resolve to the earliest-queued item, so repeated calls with the
// same ordering are deterministic.
func (q *Queue[T]) Min(less func(a, b T) bool) (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	best := 0
	for i := 1; i < len(q.items); i++ {
		if less(q.items[i], q.items[best]) {
			best = i
		}
	}
	return q.items[best], true
}

// EvictMin removes and returns the least queued item under less (earliest
// queued on ties) — the primitive behind reject-lowest-first load
// shedding in bounded queues.
func (q *Queue[T]) EvictMin(less func(a, b T) bool) (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	best := 0
	for i := 1; i < len(q.items); i++ {
		if less(q.items[i], q.items[best]) {
			best = i
		}
	}
	v := q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	return v, true
}
