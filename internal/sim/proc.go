package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a simulated process: a coroutine the kernel switches to from
// an event callback and that switches back when it blocks. At any instant
// at most one process runs, on the goroutine that called Run; all others
// are parked in the middle of a blocking call, which keeps the simulation
// deterministic and makes a switch cost a function call, not a trip
// through the Go scheduler.
//
// A process interacts with virtual time exclusively through its Proc
// handle: Sleep, Yield, and the blocking operations on Signal and Queue.
// Those methods must be called from the process's own function. Called
// from an event callback or another process they suspend the wrong
// coroutine (or fail inside iter.Pull); nothing detects that.
//
// A process ends when its function returns or when Kernel.Close unwinds
// it: the blocking call it is parked in panics with a private value, so
// its deferred calls run, and the kernel swallows that panic. Any other
// panic in a process propagates out of Kernel.Run.
type Proc struct {
	k      *Kernel
	name   string
	next   func() (struct{}, bool) // runs the process until it parks or ends
	stop   func()                  // makes the pending park return false
	yield  func(struct{}) bool     // parks; false once stop was called
	resume func()                  // step, bound once: the callback of every wake-up
	w      waiter                  // a process blocks on one thing at a time
	idx    int                     // position in k.live
	done   bool
}

// killed is the panic value that unwinds a process during Kernel.Close.
type killed struct{}

// Go spawns a process running fn. The process starts at the current
// virtual instant, after already-queued events for this instant.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, idx: len(k.live)}
	k.live = append(k.live, p)
	p.resume = p.step
	p.w.p = p
	p.w.expire = p.w.timeout
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finish()
			if r := recover(); r != nil && r != (killed{}) {
				panic(r) // iter.Pull hands it to whoever called next
			}
		}()
		fn(p)
	})
	k.Soon(p.resume)
	return p
}

// step switches to the process and returns when it parks again or ends.
// It runs as an event callback; once the process has ended it does
// nothing, so a wake-up that outlives its process is harmless.
func (p *Proc) step() { p.next() }

// park switches back to the kernel until another event resumes the
// process.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// finish takes the process off the kernel's books.
func (p *Proc) finish() {
	p.done = true
	live := p.k.live
	last := live[len(live)-1]
	live[p.idx], last.idx = last, p.idx
	live[len(live)-1] = nil
	p.k.live = live[:len(live)-1]
}

// kill unwinds a process that has not finished.
func (p *Proc) kill() {
	p.stop()
	if !p.done {
		// Never started: its function, and so the deferred finish,
		// did not run.
		p.finish()
	}
}

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
	p.k.After(d, p.resume)
	p.park()
}

// Yield reschedules the process behind all events queued for the current
// instant, letting same-time work interleave fairly.
func (p *Proc) Yield() {
	p.k.Soon(p.resume)
	p.park()
}

// Waitable is anything a process can block on with an optional timeout.
type Waitable interface {
	// enqueue registers w; the waitable later wakes it via w.wake.
	enqueue(w *waiter)
	// dequeue removes w after a timeout won the race.
	dequeue(w *waiter)
}

// waiter links a blocked process to the waitable it sleeps on. Each
// process owns one and reuses it: by the time block returns, the wake or
// the timeout has taken it off the waitable's list.
type waiter struct {
	p      *Proc
	on     Waitable
	fired  bool // set when either the wake or the timeout has claimed it
	timer  Event
	ok     bool   // result: true = woken by the waitable, false = timed out
	expire func() // timeout, bound once
}

// wake is called by the waitable's owner (from kernel context) to release
// the waiter. It is idempotent against the timeout path.
func (w *waiter) wake() {
	if w.fired {
		return
	}
	w.fired = true
	w.ok = true
	w.timer.Cancel()
	w.p.k.Soon(w.p.resume)
}

// timeout is the timer's callback.
func (w *waiter) timeout() {
	if w.fired {
		return
	}
	w.fired = true
	w.ok = false
	w.on.dequeue(w)
	w.p.k.Soon(w.p.resume)
}

// block parks p until wake or until the timeout elapses. timeout < 0 means
// wait forever. It reports whether the wait was satisfied (vs timed out).
func block(p *Proc, wt Waitable, timeout time.Duration) bool {
	w := &p.w
	w.on, w.fired, w.ok, w.timer = wt, false, false, Event{}
	wt.enqueue(w)
	if timeout >= 0 {
		w.timer = p.k.After(timeout, w.expire)
	}
	p.park()
	return w.ok
}

// Signal is a broadcast/wakeup primitive: processes block on Wait and are
// released one at a time (Pulse) or all at once (Broadcast). There is no
// memory: a Pulse with no waiters is lost, like a condition variable.
type Signal struct {
	waiters Ring[*waiter]
}

// NewSignal returns an empty signal.
func NewSignal() *Signal { return &Signal{} }

func (s *Signal) enqueue(w *waiter) { s.waiters.Push(w) }

func (s *Signal) dequeue(w *waiter) {
	for i := 0; i < s.waiters.Len(); i++ {
		if s.waiters.At(i) == w {
			s.waiters.RemoveAt(i)
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
	if s.waiters.Len() > 0 {
		s.waiters.Pop().wake()
	}
}

// Broadcast wakes every waiting process.
func (s *Signal) Broadcast() {
	// wake only schedules the process, so nobody re-enqueues meanwhile.
	for s.waiters.Len() > 0 {
		s.waiters.Pop().wake()
	}
}

// Queue is an unbounded FIFO of items with blocking receive, the standard
// mailbox between simulated processes (socket receive buffers, thread-pool
// request queues, and so on).
type Queue[T any] struct {
	items Ring[T]
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
	if q.limit > 0 && q.items.Len() >= q.limit {
		return false
	}
	q.items.Push(v)
	q.sig.Pulse()
	return true
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
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
func (q *Queue[T]) Len() int { return q.items.Len() }

// Min returns the least queued item under less without removing it.
// Ties resolve to the earliest-queued item, so repeated calls with the
// same ordering are deterministic.
func (q *Queue[T]) Min(less func(a, b T) bool) (T, bool) {
	i, ok := q.minIndex(less)
	if !ok {
		var zero T
		return zero, false
	}
	return q.items.At(i), true
}

// EvictMin removes and returns the least queued item under less (earliest
// queued on ties) — the primitive behind reject-lowest-first load
// shedding in bounded queues.
func (q *Queue[T]) EvictMin(less func(a, b T) bool) (T, bool) {
	i, ok := q.minIndex(less)
	if !ok {
		var zero T
		return zero, false
	}
	return q.items.RemoveAt(i), true
}

func (q *Queue[T]) minIndex(less func(a, b T) bool) (int, bool) {
	best := 0
	for i := 1; i < q.items.Len(); i++ {
		if less(q.items.At(i), q.items.At(best)) {
			best = i
		}
	}
	return best, q.items.Len() > 0
}
