package rtcorba

import (
	"fmt"
	"strconv"

	"repro/internal/events"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ShedReason classifies why the pool discarded a work item instead of
// executing it.
type ShedReason int

const (
	// ShedEvicted means a full lane evicted this (lowest-priority) item
	// to admit a higher-priority arrival.
	ShedEvicted ShedReason = iota + 1
	// ShedDeadline means the item's end-to-end deadline had already
	// expired when a lane thread dequeued it: executing it would waste
	// CPU on a reply the client no longer wants.
	ShedDeadline
)

func (r ShedReason) String() string {
	switch r {
	case ShedEvicted:
		return "evicted"
	case ShedDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("ShedReason(%d)", int(r))
	}
}

// Work is a unit dispatched onto a pool thread. The thread's native
// priority has already been set according to the priority model when
// its job runs.
type Work struct {
	// Priority is the CORBA priority governing the dispatch.
	Priority Priority
	// Job runs on the pool thread, or is told why the pool discarded it.
	Job Job
	// Ctx, when valid, parents the lane-queue span the pool records for
	// this work item (the enqueue-to-dequeue delay) when a tracer is
	// installed.
	Ctx trace.SpanContext
	// Deadline, when non-zero, is the absolute expiry instant of the
	// request's end-to-end deadline. A lane thread that dequeues the
	// item after this instant sheds it instead of running its job.
	Deadline sim.Time

	qspan *trace.Span
}

// Job is what a work item does: Run on a pool thread, or Shed if the
// pool discards it once admitted. A server's request record is its own
// job, so a dispatch costs no closure.
type Job interface {
	Run(t *rtos.Thread)
	Shed(reason ShedReason)
}

// JobFunc adapts a function to Job; it drops a shed silently.
type JobFunc func(t *rtos.Thread)

func (f JobFunc) Run(t *rtos.Thread) { f(t) }
func (f JobFunc) Shed(ShedReason)    {}

// LaneConfig configures one priority lane of a thread pool.
type LaneConfig struct {
	// Priority is the lane's CORBA priority: the lane serves requests at
	// or above this priority (up to the next lane), and its threads
	// idle at the mapped native priority.
	Priority Priority
	// Threads is the number of static threads. Must be >= 1.
	Threads int
	// QueueLimit bounds buffered requests per lane (an RT-CORBA memory
	// resource control). 0 means unbounded.
	QueueLimit int
	// HighWatermark, when positive, enables admission control before the
	// hard limit: once the lane buffers this many requests, a new
	// arrival is admitted only if its priority strictly exceeds that of
	// some already-queued request (i.e. it would win an eviction). The
	// effect is that a sustained flood of equal-priority work stabilises
	// at the watermark with bounded queueing delay instead of filling
	// the queue to the limit. Must not exceed QueueLimit when both are
	// set.
	HighWatermark int
}

// ThreadPool is an RT-CORBA thread pool with priority lanes: requests are
// dispatched to the lane whose priority is the highest not exceeding the
// request's priority, so high-priority requests never queue behind
// low-priority ones. Bounded lanes shed load priority-aware: a
// high-priority arrival at a full lane evicts the lowest-priority queued
// item rather than being refused, and items whose end-to-end deadline
// has already expired are discarded at dequeue.
type ThreadPool struct {
	host   *rtos.Host
	mm     *MappingManager
	lanes  []*lane
	tracer *trace.Tracer
	bus    *events.Bus
	source string
}

// SetTracer enables lane-queue spans for work items carrying a trace
// context. A nil tracer disables them.
func (tp *ThreadPool) SetTracer(tr *trace.Tracer) { tp.tracer = tr }

// SetBus publishes every discarded work item as a KindShed record named
// source, carrying the lane and a reason: "evicted" or "deadline" for
// post-admission sheds, "refused" for admission rejections. Lane sheds
// thereby merge into the unified event timeline. A nil bus disables them.
func (tp *ThreadPool) SetBus(b *events.Bus, source string) { tp.bus, tp.source = b, source }

type lane struct {
	cfg     LaneConfig
	native  rtos.Priority
	queue   *sim.Queue[Work]
	threads []*rtos.Thread
	n       [4]int64 // work items by outcome
}

// outcome is how a work item's stay in a lane ended. settle is the one
// place each is counted and, for the three that discard the item, traced
// and published; the name is the KindShed record's reason.
type outcome int

const (
	served   outcome = iota // a lane thread ran the job
	refused                 // admission: hard limit with no victim, or the watermark
	evicted                 // a higher-priority arrival took its slot
	deadline                // its deadline had passed when a thread dequeued it
)

var outcomeNames = [...]string{"served", "refused", "evicted", "deadline"}

// LaneStats counts a lane's work items by outcome. Every item Dispatch
// was offered is in one of them, or still queued or running.
type LaneStats struct {
	Served, Refused, Evicted, Deadline int64
}

// lowerPriority orders work items for eviction: strictly by CORBA
// priority, with ties resolving to the earliest-queued item (FIFO).
func lowerPriority(a, b Work) bool { return a.Priority < b.Priority }

// NewThreadPool creates a pool on host with the given lanes, which must
// be sorted by ascending priority and non-empty. Threads start
// immediately and idle at their lane's mapped native priority.
func NewThreadPool(host *rtos.Host, mm *MappingManager, lanes ...LaneConfig) (*ThreadPool, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("rtcorba: thread pool needs at least one lane")
	}
	tp := &ThreadPool{host: host, mm: mm}
	prev := Priority(-1)
	for _, cfg := range lanes {
		if cfg.Priority <= prev {
			return nil, fmt.Errorf("rtcorba: lanes must have strictly ascending priorities")
		}
		prev = cfg.Priority
		if cfg.Threads < 1 {
			return nil, fmt.Errorf("rtcorba: lane at priority %d has no threads", cfg.Priority)
		}
		if cfg.HighWatermark < 0 || (cfg.QueueLimit > 0 && cfg.HighWatermark > cfg.QueueLimit) {
			return nil, fmt.Errorf("rtcorba: lane at priority %d has watermark %d outside [0,%d]",
				cfg.Priority, cfg.HighWatermark, cfg.QueueLimit)
		}
		native, ok := mm.ToNative(cfg.Priority, host.Priorities())
		if !ok {
			return nil, fmt.Errorf("rtcorba: lane priority %d does not map to a native priority", cfg.Priority)
		}
		ln := &lane{cfg: cfg, native: native}
		if cfg.QueueLimit > 0 {
			ln.queue = sim.NewBoundedQueue[Work](cfg.QueueLimit)
		} else {
			ln.queue = sim.NewQueue[Work]()
		}
		tp.lanes = append(tp.lanes, ln)
	}
	for _, ln := range tp.lanes {
		ln := ln
		for i := 0; i < ln.cfg.Threads; i++ {
			name := fmt.Sprintf("pool-l%d-t%d", ln.cfg.Priority, i)
			th := host.Spawn(name, ln.native, func(t *rtos.Thread) {
				tp.laneWorker(ln, t)
			})
			ln.threads = append(ln.threads, th)
		}
	}
	return tp, nil
}

func (tp *ThreadPool) laneWorker(ln *lane, t *rtos.Thread) {
	for {
		w := ln.queue.Get(t.Proc())
		// Check the remaining deadline budget before spending CPU: a
		// request that already expired in the queue is shed, not served.
		if w.Deadline > 0 && t.Now() > w.Deadline {
			tp.settle(ln, w, deadline)
			continue
		}
		if w.qspan != nil {
			// The queueing delay ends the moment a lane thread picks the
			// work up; execution is traced by the dispatch span above.
			w.qspan.Finish()
		}
		// Client-propagated dispatches run at the request's mapped
		// priority; the mapping manager is consulted per dispatch so a
		// newly installed custom mapping takes effect immediately.
		if native, ok := tp.mm.ToNative(w.Priority, tp.host.Priorities()); ok {
			t.SetPriority(native)
		} else {
			t.SetPriority(ln.native)
		}
		w.Job.Run(t)
		tp.settle(ln, w, served)
		t.SetPriority(ln.native)
	}
}

// settle counts a work item's outcome. An item the lane discards also
// leaves its event on the lane.queue span (or, untraced past dequeue, a
// deadline_expired span), a KindShed record, and — once admitted —
// has its job's Shed told why.
func (tp *ThreadPool) settle(ln *lane, w Work, o outcome) {
	ln.n[o]++
	if o == served {
		return
	}
	if w.qspan != nil {
		switch o {
		case refused:
			w.qspan.Event("refused")
		case evicted:
			w.qspan.Event("shed", trace.String("reason", "evicted"))
		case deadline:
			w.qspan.Event("deadline_expired")
		}
		w.qspan.Finish()
	} else if tp.tracer != nil && w.Ctx.Valid() && o == deadline {
		s := tp.tracer.StartChild(w.Ctx, "deadline_expired", trace.LayerOverload)
		s.Finish()
	}
	if tp.bus != nil {
		tp.bus.Publish(events.KindShed, tp.source,
			events.F("lane", strconv.Itoa(int(ln.cfg.Priority))),
			events.F("reason", outcomeNames[o]))
	}
	if o != refused {
		reason := ShedEvicted
		if o == deadline {
			reason = ShedDeadline
		}
		w.Job.Shed(reason)
	}
}

// Dispatch queues work onto the lane matching its priority. It reports
// false if the lane refused the work — the queue is at its hard limit
// with no lower-priority victim to evict, or at its high watermark and
// the work would not win an eviction (the RT-CORBA TRANSIENT condition).
// Work admitted by evicting a queued item sheds the victim's job.
func (tp *ThreadPool) Dispatch(w Work) bool {
	ln := tp.laneFor(w.Priority)
	if tp.tracer != nil && w.Ctx.Valid() {
		w.qspan = tp.tracer.StartChild(w.Ctx, "lane.queue", trace.LayerRTCORBA)
		w.qspan.SetAttr(
			trace.Int("lane", int64(ln.cfg.Priority)),
			trace.Int("depth", int64(ln.queue.Len())),
		)
	}
	// Admission control above the high watermark: only work that
	// dominates something already queued gets in, so a flood of
	// equal-priority requests stabilises at the watermark.
	if ln.cfg.HighWatermark > 0 && ln.queue.Len() >= ln.cfg.HighWatermark {
		if min, ok := ln.queue.Min(lowerPriority); !ok || w.Priority <= min.Priority {
			tp.settle(ln, w, refused)
			return false
		}
	}
	if ln.queue.Put(w) {
		return true
	}
	// Hard limit reached: reject-lowest-first. Evict the lowest-priority
	// queued item if the arrival outranks it; otherwise refuse the
	// arrival itself.
	if min, ok := ln.queue.Min(lowerPriority); ok && min.Priority < w.Priority {
		if victim, ok := ln.queue.EvictMin(lowerPriority); ok {
			tp.settle(ln, victim, evicted)
			if ln.queue.Put(w) {
				return true
			}
		}
	}
	tp.settle(ln, w, refused)
	return false
}

// laneFor returns the highest lane whose priority does not exceed p, or
// the lowest lane if p is below every lane.
func (tp *ThreadPool) laneFor(p Priority) *lane {
	best := tp.lanes[0]
	for _, ln := range tp.lanes {
		if ln.cfg.Priority <= p {
			best = ln
		}
	}
	return best
}

// Stats returns lane i's outcome counts.
func (tp *ThreadPool) Stats(i int) LaneStats {
	n := tp.lanes[i].n
	return LaneStats{Served: n[served], Refused: n[refused], Evicted: n[evicted], Deadline: n[deadline]}
}

// QueueDepth returns the number of requests buffered in lane i.
func (tp *ThreadPool) QueueDepth(i int) int { return tp.lanes[i].queue.Len() }
