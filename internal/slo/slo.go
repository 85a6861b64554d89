// Package slo implements service-level-objective tracking with
// multi-window burn-rate alerting over a sim.Clock.
//
// An Objective states a goal ratio of good events (availability: calls
// that succeed; latency: calls under a bound). The error budget is
// 1-Goal, and the burn rate is the observed bad-event ratio divided by
// that budget: burn 1.0 spends the budget exactly on schedule, burn
// 14.4 exhausts a 30-day budget in ~2 days. A window pair fires when
// BOTH its short and long windows exceed the pair's burn threshold —
// the short window makes alerts fast, the long window keeps one
// transient spike from paging — the multi-window multi-burn-rate
// pattern from the SRE workbook, run here on virtual time so a 12-second
// scenario can exercise the same machinery that fires over days in
// production.
//
// State transitions publish slo_burn records on the events bus, and a
// Tracker exposes its current worst burn as a quo.SysCond, so QuO
// contracts escalate on budget burn instead of raw latency — earlier
// and with fewer false alarms than a p95 threshold rule, which the
// RunSLO experiment demonstrates head-to-head.
package slo

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/quo"
	"repro/internal/sim"
)

// WindowPair is one multi-window burn-rate alert: fire when the burn
// rate over BOTH windows is at least Burn.
type WindowPair struct {
	Short, Long time.Duration
	Burn        float64
}

// Name renders the pair identity used in events and tables.
func (p WindowPair) Name() string { return fmt.Sprintf("%v/%v", p.Short, p.Long) }

// CanonicalPairs returns the SRE-workbook page/ticket pairs: a fast
// pair (5m/1h at burn 14.4, spending 2% of a 30-day budget in an hour)
// and a slow pair (6h/3d at burn 1, budget spent exactly on schedule).
func CanonicalPairs() []WindowPair {
	return []WindowPair{
		{Short: 5 * time.Minute, Long: time.Hour, Burn: 14.4},
		{Short: 6 * time.Hour, Long: 3 * 24 * time.Hour, Burn: 1},
	}
}

// ScaledPairs shrinks the canonical pairs onto a scenario-sized
// horizon: the fast pair becomes horizon/24 over horizon/2, the slow
// pair horizon/2 over horizon, with the same burn thresholds. A 12s
// scenario gets 500ms/6s and 6s/12s pairs.
func ScaledPairs(horizon time.Duration) []WindowPair {
	return []WindowPair{
		{Short: horizon / 24, Long: horizon / 2, Burn: 14.4},
		{Short: horizon / 2, Long: horizon, Burn: 1},
	}
}

// Objective is one service-level objective.
type Objective struct {
	// Name identifies the objective in events, conditions and tables.
	Name string
	// Goal is the target good-event ratio in (0, 1), e.g. 0.999.
	Goal float64
	// LatencyBound, when nonzero, makes this a latency SLO:
	// ObserveLatency classifies durations against it.
	LatencyBound time.Duration
	// Pairs are the burn-rate alert windows (CanonicalPairs if empty).
	Pairs []WindowPair
}

// bucket is one time slot of good/bad counts.
type bucket struct {
	good, bad int64
}

// pairState tracks one window pair's alert state.
type pairState struct {
	pair   WindowPair
	firing bool
	// firedAt is the clock time the pair first entered the firing
	// state (kept across resolves for FiredAt queries).
	firedAt sim.Time
	fired   bool
}

// Tracker accumulates good/bad events into a bucketed ring and
// evaluates multi-window burn rates on its sim.Clock — a kernel's
// virtual time, or sim.Wall in a live process. All state is
// mutex-guarded, so live wire handlers may Observe concurrently with
// evaluation.
type Tracker struct {
	clock sim.Clock
	obj   Objective
	bus   *events.Bus // optional

	mu        sync.Mutex
	bucketLen sim.Time
	ring      []bucket
	ringStart sim.Time // clock time of ring[head]'s slot start
	head      int      // index of the oldest retained bucket

	pairs []*pairState
	good  int64
	bad   int64
	stop  func() // non-nil while started
}

// NewTracker creates a tracker for obj on clock, publishing transitions
// on bus (nil for none). Bucket granularity is the shortest pair
// window / 5, so every window spans at least five buckets.
func NewTracker(clock sim.Clock, obj Objective, bus *events.Bus) *Tracker {
	if obj.Goal <= 0 || obj.Goal >= 1 {
		panic("slo: objective goal must be in (0, 1)")
	}
	if len(obj.Pairs) == 0 {
		obj.Pairs = CanonicalPairs()
	}
	shortest, longest := obj.Pairs[0].Short, obj.Pairs[0].Long
	for _, p := range obj.Pairs {
		if p.Short <= 0 || p.Long < p.Short {
			panic("slo: window pair must have 0 < Short <= Long")
		}
		if p.Short < shortest {
			shortest = p.Short
		}
		if p.Long > longest {
			longest = p.Long
		}
	}
	bl := sim.Time(shortest / 5)
	if bl <= 0 {
		bl = 1
	}
	n := int(sim.Time(longest)/bl) + 2
	start := clock.Now()
	t := &Tracker{
		clock:     clock,
		obj:       obj,
		bus:       bus,
		bucketLen: bl,
		ring:      make([]bucket, n),
		ringStart: start - start%bl,
	}
	for _, p := range obj.Pairs {
		t.pairs = append(t.pairs, &pairState{pair: p})
	}
	return t
}

// Objective returns the tracked objective.
func (t *Tracker) Objective() Objective { return t.obj }

// advance rotates the ring forward so the bucket covering now exists,
// zeroing slots that fell out of every window. Caller holds mu.
func (t *Tracker) advance(now sim.Time) {
	slot := now - now%t.bucketLen
	last := t.ringStart + sim.Time(len(t.ring)-1)*t.bucketLen
	for last < slot {
		t.ring[t.head] = bucket{}
		t.head = (t.head + 1) % len(t.ring)
		t.ringStart += t.bucketLen
		last += t.bucketLen
	}
}

// at returns the bucket covering the clock time v, or nil when v is
// older than the ring retains. Caller holds mu.
func (t *Tracker) at(v sim.Time) *bucket {
	if v < t.ringStart {
		return nil
	}
	idx := int((v - t.ringStart) / t.bucketLen)
	if idx >= len(t.ring) {
		return nil
	}
	return &t.ring[(t.head+idx)%len(t.ring)]
}

// Observe records one event outcome at the current clock time.
func (t *Tracker) Observe(good bool) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
	b := t.at(now)
	if good {
		b.good++
		t.good++
	} else {
		b.bad++
		t.bad++
	}
}

// ObserveLatency classifies a duration against the objective's latency
// bound (panics when the objective has none).
func (t *Tracker) ObserveLatency(d time.Duration) {
	if t.obj.LatencyBound <= 0 {
		panic("slo: ObserveLatency on an objective without a latency bound")
	}
	t.Observe(d <= t.obj.LatencyBound)
}

// window sums the buckets covering (now-w, now]. Caller holds mu.
func (t *Tracker) window(now sim.Time, w time.Duration) (good, bad int64) {
	lo := now - sim.Time(w)
	for v := lo - lo%t.bucketLen; v <= now; v += t.bucketLen {
		if b := t.at(v); b != nil {
			good += b.good
			bad += b.bad
		}
	}
	return good, bad
}

// burn computes the burn rate over the trailing window w ending at
// now. Caller holds mu.
func (t *Tracker) burn(now sim.Time, w time.Duration) float64 {
	good, bad := t.window(now, w)
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - t.obj.Goal)
}

// WorstBurn returns the highest pairwise burn: for each pair the lesser
// of its short- and long-window burns (the value the firing test
// compares against the threshold), maximised over pairs.
func (t *Tracker) WorstBurn() float64 {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
	worst := 0.0
	for _, ps := range t.pairs {
		b := t.burn(now, ps.pair.Short)
		if lb := t.burn(now, ps.pair.Long); lb < b {
			b = lb
		}
		if b > worst {
			worst = b
		}
	}
	return worst
}

// Evaluate re-checks every window pair against the current ring,
// publishing slo_burn transitions on the bus. Returns the number of
// pairs currently firing.
func (t *Tracker) Evaluate() int {
	now := t.clock.Now()
	type transition struct {
		ps          *pairState
		state       string
		short, long float64
	}
	var pending []transition
	t.mu.Lock()
	t.advance(now)
	firing := 0
	for _, ps := range t.pairs {
		short, long := t.burn(now, ps.pair.Short), t.burn(now, ps.pair.Long)
		hot := short >= ps.pair.Burn && long >= ps.pair.Burn
		switch {
		case hot && !ps.firing:
			ps.firing = true
			if !ps.fired {
				ps.fired = true
				ps.firedAt = now
			}
			pending = append(pending, transition{ps, "firing", short, long})
		case !hot && ps.firing:
			ps.firing = false
			pending = append(pending, transition{ps, "resolved", short, long})
		}
		if ps.firing {
			firing++
		}
	}
	t.mu.Unlock()
	// Publish outside the lock: bus subscribers (the profiler's
	// burn-triggered capture) may read tracker state from their callbacks.
	for _, tr := range pending {
		t.publish(tr.ps, tr.state, tr.short, tr.long)
	}
	return firing
}

func (t *Tracker) publish(ps *pairState, state string, short, long float64) {
	if t.bus == nil {
		return
	}
	t.bus.Publish(events.KindSLOBurn, "slo/"+t.obj.Name,
		events.F("window", ps.pair.Name()),
		events.F("state", state),
		events.F("burn_short", strconv.FormatFloat(short, 'g', 6, 64)),
		events.F("burn_long", strconv.FormatFloat(long, 'g', 6, 64)),
		events.F("threshold", strconv.FormatFloat(ps.pair.Burn, 'g', 6, 64)))
}

// FiredAt returns the clock time the given pair (by index) first
// fired, and whether it ever did.
func (t *Tracker) FiredAt(pair int) (sim.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if pair < 0 || pair >= len(t.pairs) {
		return 0, false
	}
	return t.pairs[pair].firedAt, t.pairs[pair].fired
}

// Start schedules periodic evaluation every interval (bucket length if
// <= 0) until Stop; it may be called again after Stop.
func (t *Tracker) Start(every time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stop != nil {
		return
	}
	if every <= 0 {
		every = time.Duration(t.bucketLen)
	}
	t.stop = t.clock.Every(every, func() { t.Evaluate() })
}

// Stop halts periodic evaluation. On sim.Wall it waits for the
// evaluation goroutine to exit before returning.
func (t *Tracker) Stop() {
	t.mu.Lock()
	stop := t.stop
	t.stop = nil
	t.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Render returns the tracker's current state as deterministic text:
// one line per pair with both burns and the alert state.
func (t *Tracker) Render() string {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
	var b strings.Builder
	good, bad := t.good, t.bad
	ratio := 1.0
	if good+bad > 0 {
		ratio = float64(good) / float64(good+bad)
	}
	fmt.Fprintf(&b, "slo %s: goal %.4g, observed %.6g (%d good / %d bad)\n",
		t.obj.Name, t.obj.Goal, ratio, good, bad)
	for _, ps := range t.pairs {
		state := "ok"
		if ps.firing {
			state = "FIRING"
		}
		fmt.Fprintf(&b, "  pair %-12s burn>=%-5g short %-8.4g long %-8.4g %s\n",
			ps.pair.Name(), ps.pair.Burn, t.burn(now, ps.pair.Short), t.burn(now, ps.pair.Long), state)
	}
	return b.String()
}

// PairSnapshot is one window pair's live state for introspection.
type PairSnapshot struct {
	Window    string  `json:"window"`
	Burn      float64 `json:"burn_threshold"`
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	Firing    bool    `json:"firing"`
}

// Snapshot is the tracker's live state for the /debug/qos endpoint.
type Snapshot struct {
	Name  string         `json:"name"`
	Goal  float64        `json:"goal"`
	Good  int64          `json:"good"`
	Bad   int64          `json:"bad"`
	Pairs []PairSnapshot `json:"pairs"`
}

// Snapshot returns the tracker's current state for live introspection.
func (t *Tracker) Snapshot() Snapshot {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(now)
	s := Snapshot{Name: t.obj.Name, Goal: t.obj.Goal, Good: t.good, Bad: t.bad}
	for _, ps := range t.pairs {
		s.Pairs = append(s.Pairs, PairSnapshot{
			Window:    ps.pair.Name(),
			Burn:      ps.pair.Burn,
			BurnShort: t.burn(now, ps.pair.Short),
			BurnLong:  t.burn(now, ps.pair.Long),
			Firing:    ps.firing,
		})
	}
	return s
}

// BurnCond adapts the tracker's worst pairwise burn into a QuO system
// condition object, so a contract region can trigger on budget burn.
type BurnCond struct {
	name    string
	tracker *Tracker
}

var _ quo.SysCond = (*BurnCond)(nil)

// Cond creates the condition (conventionally named "<slo>_burn").
func (t *Tracker) Cond(name string) *BurnCond {
	return &BurnCond{name: name, tracker: t}
}

// Name implements quo.SysCond.
func (c *BurnCond) Name() string { return c.name }

// Value implements quo.SysCond: the tracker's worst pairwise burn.
func (c *BurnCond) Value() float64 { return c.tracker.WorstBurn() }
