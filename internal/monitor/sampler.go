package monitor

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/quo"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// DefaultEvery is the sampling period when none is configured.
const DefaultEvery = 250 * time.Millisecond

// RuleOp is the comparison direction of an alert rule.
type RuleOp int

const (
	// Above fires when the observed statistic exceeds the threshold.
	Above RuleOp = iota + 1
	// Below fires when the observed statistic falls under the threshold.
	Below
)

func (op RuleOp) String() string {
	if op == Below {
		return "below"
	}
	return "above"
}

// Rule is a threshold alert over one series statistic. Grammar:
//
//	ALERT <name> WHEN <series>.<stat> {above|below} <threshold> FOR <n> windows
//
// The rule fires after the condition has held for For consecutive
// closed windows (empty windows break the streak) and resolves on the
// first window where it no longer holds. Firing and resolving publish
// KindAlert records on the bus.
type Rule struct {
	Name      string
	Series    string // sampler series name (canonical instrument key [+ .window suffix])
	Stat      Stat
	Op        RuleOp
	Threshold float64
	For       int // consecutive windows required; <=1 means immediate

	streak int
	firing bool
}

func (r *Rule) holds(v float64) bool {
	if r.Op == Below {
		return v < r.Threshold
	}
	return v > r.Threshold
}

// Sampler walks a telemetry registry on a fixed period,
// turning instruments into bounded time series:
//
//   - each counter becomes a per-window delta series (one observation
//     per tick: the increase since the previous tick),
//   - each gauge becomes a per-window level series (its value at the
//     tick),
//   - each histogram's window reservoir is drained via TakeWindowEx into
//     a per-window distribution series, leaving the cumulative summary
//     untouched.
//
// After appending windows it evaluates alert rules and publishes
// KindAlert transitions on the bus (when one is attached). Series are
// created lazily as instruments appear in the registry, so scenarios
// may register metrics after the sampler starts.
//
// The sampler ticks on whatever sim.Clock it is given: kernel events in
// a simulation, a goroutine against a live process's registry on
// sim.Wall. All state is mutex-guarded so wall-clock ticks, condition
// reads, and Stop may race cleanly.
type Sampler struct {
	Clock sim.Clock
	Reg   *telemetry.Registry
	Bus   *events.Bus // optional; alert + tick records
	Every time.Duration

	mu         sync.Mutex
	series     map[string]*Series
	prevCount  map[string]float64
	rules      []*Rule
	collectors []func() // run at the top of every tick (runtime collector hook)
	lastTick   sim.Time
	ticks      int
	stop       func() // non-nil while started
}

// NewSampler creates a sampler over reg ticking every period
// (DefaultEvery if <= 0) on clock; windows are stamped in its domain, so
// on sim.Wall they line up with spans and bus records. The bus may be
// nil.
func NewSampler(clock sim.Clock, reg *telemetry.Registry, bus *events.Bus, every time.Duration) *Sampler {
	if every <= 0 {
		every = DefaultEvery
	}
	return &Sampler{
		Clock:     clock,
		Reg:       reg,
		Bus:       bus,
		Every:     every,
		series:    make(map[string]*Series),
		prevCount: make(map[string]float64),
	}
}

// AddRule registers an alert rule evaluated after every tick.
func (s *Sampler) AddRule(r *Rule) *Sampler {
	if r.For < 1 {
		r.For = 1
	}
	s.mu.Lock()
	s.rules = append(s.rules, r)
	s.mu.Unlock()
	return s
}

// AddCollector registers fn to run at the top of every tick, before
// instruments are read — the hook the Go runtime collector uses so each
// window carries a fresh snapshot of process health.
func (s *Sampler) AddCollector(fn func()) *Sampler {
	s.mu.Lock()
	s.collectors = append(s.collectors, fn)
	s.mu.Unlock()
	return s
}

// Start schedules the recurring sampling tick; it may be called again
// after Stop to resume sampling.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.lastTick = s.Clock.Now()
	s.stop = s.Clock.Every(s.Every, s.Tick)
}

// Stop halts sampling. On sim.Wall it waits for the ticker goroutine to
// exit before returning, so callers may tear down the registry or bus
// immediately after.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop := s.stop
	s.stop = nil
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Ticks returns the number of completed sampling ticks.
func (s *Sampler) Ticks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// get returns the named series, creating it if needed. Caller holds mu.
func (s *Sampler) get(name string) *Series {
	sr, ok := s.series[name]
	if !ok {
		sr = NewSeries(name, DefaultWindows)
		s.series[name] = sr
	}
	return sr
}

// Series returns the series for a canonical instrument key (histograms
// additionally expose "<key>.window"), or nil if never sampled. The
// returned series is itself safe for concurrent reads.
func (s *Sampler) Series(name string) *Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name]
}

// Tick closes one sampling window: runs collectors, reads every
// instrument, appends window summaries, and evaluates alert rules.
// Exposed so tests and scenarios can force a final window at shutdown.
func (s *Sampler) Tick() {
	s.mu.Lock()
	collectors := s.collectors
	s.mu.Unlock()
	// Collectors touch only the (thread-safe) registry; run them outside
	// the sampler lock so a slow collector cannot stall readers.
	for _, fn := range collectors {
		fn()
	}

	s.mu.Lock()
	start, end := s.lastTick, s.Clock.Now()
	s.lastTick = end
	s.ticks++

	for _, key := range s.Reg.CounterKeys() {
		cur := s.Reg.CounterByKey(key).Value()
		delta := cur - s.prevCount[key]
		s.prevCount[key] = cur
		sr := s.get(key)
		sr.Observe(delta)
		sr.Roll(start, end)
	}
	for _, key := range s.Reg.GaugeKeys() {
		sr := s.get(key)
		sr.Observe(s.Reg.GaugeByKey(key).Value())
		sr.Roll(start, end)
	}
	for _, key := range s.Reg.HistogramKeys() {
		sum, ex, _ := s.Reg.HistogramByKey(key).TakeWindowEx()
		s.get(key + ".window").Append(Window{Start: start, End: end, Summary: sum, Exemplar: ex})
	}

	var pending []pendingRecord
	if s.Bus != nil {
		pending = append(pending, pendingRecord{
			kind:   events.KindSample,
			source: "sampler",
			fields: []events.Field{
				events.F("tick", strconv.Itoa(s.ticks)),
				events.F("series", strconv.Itoa(len(s.series))),
			},
		})
	}
	pending = s.evalRules(pending)
	s.mu.Unlock()

	// Publish outside the lock: bus subscribers (profiler, contracts) may
	// read sampler state from their callbacks.
	for _, p := range pending {
		s.Bus.Publish(p.kind, p.source, p.fields...)
	}
}

type pendingRecord struct {
	kind   events.Kind
	source string
	fields []events.Field
}

// evalRules updates rule streaks and appends alert transitions to
// pending. Caller holds mu.
func (s *Sampler) evalRules(pending []pendingRecord) []pendingRecord {
	for _, r := range s.rules {
		sr := s.series[r.Series]
		if sr == nil {
			continue
		}
		w, ok := sr.Last()
		if !ok {
			continue
		}
		// Empty windows carry no evidence either way for value statistics;
		// they still count for StatCount/StatRate (zero traffic is a fact).
		if w.N == 0 && r.Stat != StatCount && r.Stat != StatRate {
			r.streak = 0
			continue
		}
		v := r.Stat.Of(w)
		if r.holds(v) {
			r.streak++
		} else {
			r.streak = 0
		}
		switch {
		case !r.firing && r.streak >= r.For:
			r.firing = true
			pending = s.alert(pending, r, "firing", v)
		case r.firing && r.streak == 0:
			r.firing = false
			pending = s.alert(pending, r, "resolved", v)
		}
	}
	return pending
}

func (s *Sampler) alert(pending []pendingRecord, r *Rule, state string, v float64) []pendingRecord {
	if s.Bus == nil {
		return pending
	}
	return append(pending, pendingRecord{
		kind:   events.KindAlert,
		source: "rule/" + r.Name,
		fields: []events.Field{
			events.F("state", state),
			events.F("series", r.Series),
			events.F("stat", r.Stat.String()),
			events.F("op", r.Op.String()),
			events.F("value", strconv.FormatFloat(v, 'g', 6, 64)),
			events.F("threshold", strconv.FormatFloat(r.Threshold, 'g', 6, 64)),
		},
	})
}

// SeriesCond adapts one sampled series statistic into a QuO system
// condition object: the closed-loop feed. Contracts evaluating the
// condition see the statistic of the most recent non-empty window —
// i.e. what the monitoring plane measured, not what a probe hand-set.
type SeriesCond struct {
	name    string
	sampler *Sampler
	series  string
	stat    Stat
	// Default is returned before any non-empty window exists.
	Default float64
}

var _ quo.SysCond = (*SeriesCond)(nil)

// NewSeriesCond creates a condition reading stat of the named series.
func NewSeriesCond(name string, s *Sampler, series string, stat Stat) *SeriesCond {
	return &SeriesCond{name: name, sampler: s, series: series, stat: stat}
}

// HistogramCond reads a statistic of a histogram's per-window series
// (key + ".window").
func HistogramCond(name string, s *Sampler, histKey string, stat Stat) *SeriesCond {
	return NewSeriesCond(name, s, histKey+".window", stat)
}

// CounterRateCond reads a counter's per-second rate series.
func CounterRateCond(name string, s *Sampler, counterKey string) *SeriesCond {
	return NewSeriesCond(name, s, counterKey, StatRate)
}

// Name implements quo.SysCond.
func (c *SeriesCond) Name() string { return c.name }

// Value implements quo.SysCond: the configured statistic of the most
// recent non-empty window, or Default before one exists.
func (c *SeriesCond) Value() float64 {
	sr := c.sampler.Series(c.series)
	if sr == nil {
		return c.Default
	}
	// Rate/count statistics are meaningful on empty windows (zero); value
	// statistics need at least one observation.
	if c.stat == StatCount || c.stat == StatRate {
		if w, ok := sr.Last(); ok {
			return c.stat.Of(w)
		}
		return c.Default
	}
	w, ok := sr.LastNonEmpty()
	if !ok {
		return c.Default
	}
	return c.stat.Of(w)
}
