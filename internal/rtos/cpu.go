package rtos

import (
	"time"

	"repro/internal/sim"
)

// Effective-priority bands. Within the scheduler every runnable job is
// ordered by a single 64-bit effective priority: reservation-backed jobs
// with remaining budget outrank all ordinary threads (the resource kernel
// runs reserves above the time-sharing and fixed-priority classes);
// depleted hard reserves are demoted below everything (background class);
// everything else is ordered by the thread's current native priority.
const (
	bandBackground = int64(0) << 44
	bandNormal     = int64(1) << 44
	bandBoost      = int64(2) << 44
)

// job is one Compute request by a thread: a demand for CPU time that the
// scheduler satisfies under contention. Its thread waits on t.computed.
type job struct {
	t         *Thread
	remaining time.Duration
	seq       uint64 // FIFO order within an effective-priority level
}

func (j *job) effPrio() int64 {
	t := j.t
	if r := t.reserve; r != nil {
		if !r.depleted {
			// Rate-monotonic ordering among active reserves: shorter
			// period wins. The subtraction keeps values positive.
			return bandBoost + (int64(1)<<40 - int64(r.period/time.Microsecond))
		}
		if r.policy == EnforceHard {
			return bandBackground + int64(t.CurrentPriority())
		}
		// Soft enforcement: a depleted reserve competes at base priority.
	}
	return bandNormal + int64(t.CurrentPriority())
}

// CPU is a single simulated processor with preemptive fixed-priority
// scheduling and optional round-robin slicing within a priority level.
type CPU struct {
	host    *Host
	quantum time.Duration

	jobs    []*job
	running *job
	runFrom sim.Time
	timer   sim.Event
	onTimer func() // decisionPoint, bound once
	rotate  bool   // the armed timer is a quantum expiry
	seq     uint64
	halted  bool

	tracer *Tracer
}

func newCPU(h *Host, quantum time.Duration) *CPU {
	c := &CPU{host: h, quantum: quantum}
	c.onTimer = c.decisionPoint
	return c
}

// add enqueues a new compute demand and reevaluates the schedule.
func (c *CPU) add(j *job) {
	c.seq++
	j.seq = c.seq
	c.jobs = append(c.jobs, j)
	c.reschedule()
}

// charge accounts CPU time consumed by the running job since it was last
// dispatched, draining its reservation budget if it has one.
func (c *CPU) charge() {
	if c.running == nil {
		return
	}
	now := c.host.k.Now()
	elapsed := now - c.runFrom
	if elapsed <= 0 {
		return
	}
	c.running.remaining -= elapsed
	if c.tracer != nil {
		c.tracer.record(c.running.t, now-elapsed, now)
	}
	c.runFrom = now
	if r := c.running.t.reserve; r != nil && !r.depleted {
		r.consume(elapsed)
	}
}

// pick returns the runnable job with the highest effective priority,
// breaking ties FIFO by sequence number.
func (c *CPU) pick() *job {
	var best *job
	for _, j := range c.jobs {
		if best == nil {
			best = j
			continue
		}
		bp, jp := best.effPrio(), j.effPrio()
		if jp > bp || (jp == bp && j.seq < best.seq) {
			best = j
		}
	}
	return best
}

func (c *CPU) remove(j *job) {
	for i, x := range c.jobs {
		if x == j {
			c.jobs = append(c.jobs[:i], c.jobs[i+1:]...)
			return
		}
	}
}

// hasPeer reports whether another runnable job shares j's effective
// priority, which is what makes a round-robin quantum relevant.
func (c *CPU) hasPeer(j *job) bool {
	p := j.effPrio()
	for _, x := range c.jobs {
		if x != j && x.effPrio() == p {
			return true
		}
	}
	return false
}

// halt crash-stops the processor: the running job is charged for the
// time it got, the dispatch timer is cancelled, and no job runs until
// recover. Queued demands stay queued, frozen mid-computation.
func (c *CPU) halt() {
	if c.halted {
		return
	}
	c.charge()
	c.halted = true
	c.running = nil
	c.timer.Cancel()
}

// recover restarts a halted processor and dispatches the frozen queue.
func (c *CPU) recover() {
	if !c.halted {
		return
	}
	c.halted = false
	c.reschedule()
}

// reschedule is the single scheduling decision point. It is invoked on
// every event that can change the dispatch order: job arrival, completion,
// priority change, reservation replenishment or depletion, quantum expiry,
// and mutex handoffs.
func (c *CPU) reschedule() {
	if c.halted {
		return
	}
	k := c.host.k
	c.charge()
	c.timer.Cancel()

	// Retire completed jobs. Completion callbacks may wake threads, which
	// enqueue follow-on events rather than running inline, so iterating
	// here is safe.
	for {
		var doneJob *job
		for _, j := range c.jobs {
			if j.remaining <= 0 {
				doneJob = j
				break
			}
		}
		if doneJob == nil {
			break
		}
		c.remove(doneJob)
		doneJob.t.computed.Broadcast()
	}

	// A reserve whose budget just hit zero flips to depleted, which
	// changes its jobs' effective priority before the next pick.
	for _, j := range c.jobs {
		if r := j.t.reserve; r != nil && !r.depleted && r.budget <= 0 {
			r.deplete()
		}
	}

	best := c.pick()
	if c.running != nil && best != c.running {
		// Preempted (or finished): nothing to do beyond bookkeeping;
		// the job stays queued with its remaining demand.
		c.running = nil
	}
	if best == nil {
		c.running = nil
		return
	}
	c.running = best
	c.runFrom = k.Now()

	// Next mandatory decision point: completion, budget exhaustion, or
	// quantum expiry, whichever is earliest.
	next := best.remaining
	if r := best.t.reserve; r != nil && !r.depleted && r.budget < next {
		next = r.budget
	}
	quantumHit := false
	if c.quantum > 0 && c.hasPeer(best) && c.quantum < next {
		next = c.quantum
		quantumHit = true
	}
	if next <= 0 {
		next = time.Nanosecond
	}
	c.rotate = quantumHit
	c.timer = k.After(next, c.onTimer)
}

// decisionPoint is the dispatch timer's callback. Whatever changes
// c.running cancels the timer first, so the job it was armed for is still
// the one running.
func (c *CPU) decisionPoint() {
	if c.rotate {
		// Round-robin: send the job to the back of its class.
		c.charge()
		c.seq++
		c.running.seq = c.seq
	}
	c.reschedule()
}
