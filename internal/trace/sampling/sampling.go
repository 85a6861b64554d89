// Package sampling implements tail-based adaptive trace sampling: the
// keep/drop decision for a whole trace is made when its root span ends,
// with the full span tree in hand — so the sampler can always keep the
// traces worth debugging (errors, deadline expiries, load shedding,
// failovers, tail-latency outliers) while thinning routine traffic to a
// configurable kept-traces-per-second budget.
//
// Decisions are deterministic: the head-sampling coin is a splitmix64
// hash of the trace ID, the tail detector is a bounded per-operation
// rolling p95 over virtual-time durations, and the per-priority-band
// keep probabilities adapt by AIMD against the sim clock. Two runs of
// the same seeded scenario keep byte-identical trace sets.
//
// The sampler sits between a Tracer and its expensive sinks (Collector,
// JSONL): install it as the tracer's sink and register downstream sinks
// on it. Telemetry is unaffected — metrics probes observe every
// invocation whether or not its trace is kept, so aggregate series stay
// exact while span storage shrinks.
package sampling

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// Verdict is the sampling decision for one trace.
type Verdict int

const (
	// VerdictPending means the trace's root span has not ended yet.
	VerdictPending Verdict = iota
	// VerdictDrop discards the trace (head coin lost, nothing notable).
	VerdictDrop
	// VerdictKeepError keeps a trace containing an error-class span:
	// an error attribute, an overload-layer span (deadline expiry,
	// breaker transition, shed), an FT-layer span (failover) or a
	// network drop.
	VerdictKeepError
	// VerdictKeepTail keeps a tail-latency outlier: the root duration
	// crossed the operation's rolling p95.
	VerdictKeepTail
	// VerdictKeepHead keeps a trace by the probabilistic head coin,
	// the budget-controlled representative sample.
	VerdictKeepHead
)

func (v Verdict) String() string {
	switch v {
	case VerdictPending:
		return "pending"
	case VerdictDrop:
		return "drop"
	case VerdictKeepError:
		return "keep_error"
	case VerdictKeepTail:
		return "keep_tail"
	case VerdictKeepHead:
		return "keep_head"
	default:
		return "Verdict(" + strconv.Itoa(int(v)) + ")"
	}
}

// Keep reports whether the verdict retains the trace.
func (v Verdict) Keep() bool { return v >= VerdictKeepError }

// Config tunes the sampler. The zero value keeps everything notable
// and head-samples within HeadBudget.
type Config struct {
	// TailMin is the minimum observations of an operation before the
	// tail detector can fire (default 16), so cold starts don't keep
	// everything.
	TailMin int
	// BandOf maps a root span's priority to a band name sharing one
	// AIMD budget. Default: "low" below 50, "high" at or above.
	BandOf func(priority int64) string
	// AlwaysKeep overrides the error-class test. Default: error
	// attribute, overload layer, ft layer, or a netsim "drop" span.
	AlwaysKeep func(s *trace.Span) bool
}

const (
	// HeadBudget is the kept-traces-per-second budget for head
	// sampling, per priority band.
	HeadBudget = 10.0
	// initialProb is the starting head-sampling probability: below full
	// head sampling, so the AIMD controller converges onto the budget
	// without a cold-start overshoot.
	initialProb = 0.25
	// adjustPeriod is the AIMD adjustment period: HeadBudget is a
	// per-second budget, so the rate is judged over one second.
	adjustPeriod = time.Second
	// tailWindow bounds the per-operation duration ring used for the
	// rolling p95.
	tailWindow = 128
)

// DefaultBandOf is the default priority banding: the RT-CORBA
// experiments escalate to priority 100, so < 50 is the best-effort band.
func DefaultBandOf(priority int64) string {
	if priority < 50 {
		return "low"
	}
	return "high"
}

// DefaultAlwaysKeep is the default error-class test.
func DefaultAlwaysKeep(s *trace.Span) bool {
	if s.Layer == trace.LayerOverload || s.Layer == trace.LayerFT {
		return true
	}
	if s.Layer == trace.LayerNetsim && s.Name == "drop" {
		return true
	}
	for _, a := range s.Attrs {
		if a.Key == "error" {
			return true
		}
	}
	return false
}

// Stats is the sampler's running tally.
type Stats struct {
	Traces    int // decided traces
	Kept      int
	Dropped   int
	KeepError int
	KeepTail  int
	KeepHead  int
	// LateSpans counts spans arriving after their trace was decided;
	// Resurrected counts dropped traces flipped to kept by a late
	// always-keep span (e.g. a deadline_expired marker emitted after
	// the invoke span ended).
	LateSpans   int
	Resurrected int
	// SpansKept / SpansDropped count span-level forwarding.
	SpansKept    int
	SpansDropped int
}

// tailEst is a bounded rolling-percentile estimator over one
// operation's root durations: a ring of the most recent tailWindow
// observations, p95 computed on demand from a sorted copy. Memory and
// decisions are bounded and deterministic.
type tailEst struct {
	ring []sim.Time
	next int
	full bool
}

func (t *tailEst) observe(d sim.Time, capN int) {
	if cap(t.ring) == 0 {
		t.ring = make([]sim.Time, 0, capN)
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, d)
		return
	}
	t.ring[t.next] = d
	t.next = (t.next + 1) % len(t.ring)
	t.full = true
}

func (t *tailEst) count() int { return len(t.ring) }

// p95 returns the rolling 95th percentile (nearest-rank on the ring).
func (t *tailEst) p95() sim.Time {
	n := len(t.ring)
	if n == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), t.ring...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (n*95 + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

// bandCtl is one priority band's AIMD head-probability controller.
type bandCtl struct {
	prob        float64
	kept        int
	periodStart sim.Time
}

// Sampler is the tail-based sampling sink. It buffers each trace's
// spans until the trace's root span ends, decides once, and forwards
// kept spans (in their original end order) to the downstream sinks.
// Spans ending after the decision — late reply hops, oneway dispatches
// — follow the cached verdict, except that a late always-keep span
// resurrects a dropped trace: the late span is forwarded and the
// verdict flips, so the error marker is never lost (the earlier spans
// of a resurrected trace are gone; the collector's effective-root
// fallback keeps the remnant queryable).
//
// Not safe for concurrent use; like the Tracer itself it lives on the
// simulation goroutine.
type Sampler struct {
	cfg   Config
	k     *sim.Kernel
	down  []trace.Sink
	reg   *telemetry.Registry
	stats Stats

	pending map[trace.TraceID][]*trace.Span
	decided map[trace.TraceID]Verdict
	tails   map[string]*tailEst
	bands   map[string]*bandCtl
	// order of first appearance, for deterministic iteration when
	// rendering debug state.
	bandOrder []string
}

var _ trace.Sink = (*Sampler)(nil)

// New creates a sampler on the kernel's virtual clock, forwarding kept
// spans to down.
func New(k *sim.Kernel, cfg Config, down ...trace.Sink) *Sampler {
	if cfg.TailMin <= 0 {
		cfg.TailMin = 16
	}
	if cfg.BandOf == nil {
		cfg.BandOf = DefaultBandOf
	}
	if cfg.AlwaysKeep == nil {
		cfg.AlwaysKeep = DefaultAlwaysKeep
	}
	return &Sampler{
		cfg:     cfg,
		k:       k,
		down:    down,
		pending: make(map[trace.TraceID][]*trace.Span),
		decided: make(map[trace.TraceID]Verdict),
		tails:   make(map[string]*tailEst),
		bands:   make(map[string]*bandCtl),
	}
}

// Instrument publishes sampling decisions into a telemetry registry:
// trace.sampler.decided{verdict=...} counters and a
// trace.sampler.head_prob{band=...} gauge — so the monitoring plane can
// watch the sampler hold its budget like any other series.
func (sp *Sampler) Instrument(reg *telemetry.Registry) *Sampler {
	sp.reg = reg
	return sp
}

func (sp *Sampler) record(v Verdict, band string) {
	if sp.reg == nil {
		return
	}
	sp.reg.Counter("trace.sampler.decided", telemetry.L("verdict", v.String())).Inc()
	if band != "" {
		sp.reg.Gauge("trace.sampler.head_prob", telemetry.L("band", band)).Set(sp.bands[band].prob)
	}
}

// Stats returns the running tally.
func (sp *Sampler) Stats() Stats { return sp.stats }

// Verdict returns the decision for a trace (VerdictPending while its
// root has not ended).
func (sp *Sampler) Verdict(id trace.TraceID) Verdict { return sp.decided[id] }

// OnEnd implements trace.Sink.
func (sp *Sampler) OnEnd(s *trace.Span) {
	if v, ok := sp.decided[s.TraceID]; ok {
		sp.stats.LateSpans++
		if !v.Keep() && sp.cfg.AlwaysKeep(s) {
			// Resurrection: an error-class span ended after its trace was
			// dropped. Keep it (and everything after) rather than lose the
			// marker.
			sp.decided[s.TraceID] = VerdictKeepError
			sp.stats.Resurrected++
			sp.stats.Kept++
			sp.stats.Dropped--
			sp.stats.KeepError++
			v = VerdictKeepError
			if sp.reg != nil {
				sp.reg.Counter("trace.sampler.resurrected").Inc()
			}
		}
		sp.deliver(s, v)
		return
	}
	if s.Parent == 0 {
		sp.decide(s)
		return
	}
	sp.pending[s.TraceID] = append(sp.pending[s.TraceID], s)
}

func (sp *Sampler) deliver(s *trace.Span, v Verdict) {
	if !v.Keep() {
		sp.stats.SpansDropped++
		return
	}
	sp.stats.SpansKept++
	for _, d := range sp.down {
		d.OnEnd(s)
	}
}

// priorityOf extracts the root span's integer priority attribute (0 if
// absent or malformed).
func priorityOf(s *trace.Span) int64 {
	for _, a := range s.Attrs {
		if a.Key == "priority" {
			if v, err := strconv.ParseInt(a.Val, 10, 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// splitmix64 is the deterministic hash behind the head-sampling coin.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// coin maps a trace ID to a uniform float in [0, 1).
func coin(id trace.TraceID) float64 {
	return float64(splitmix64(uint64(id))>>11) / float64(1<<53)
}

func (sp *Sampler) band(name string) *bandCtl {
	b, ok := sp.bands[name]
	if !ok {
		b = &bandCtl{prob: initialProb, periodStart: sp.k.Now()}
		sp.bands[name] = b
		sp.bandOrder = append(sp.bandOrder, name)
	}
	return b
}

// adjust runs the AIMD step when the band's period elapsed: halve the
// head probability when the kept rate overshot the budget, add a fixed
// increment when under it.
func (sp *Sampler) adjust(b *bandCtl) {
	now := sp.k.Now()
	elapsed := now - b.periodStart
	if elapsed < sim.Time(adjustPeriod) {
		return
	}
	rate := float64(b.kept) / elapsed.Seconds()
	if rate > HeadBudget {
		b.prob /= 2
		if b.prob < 1.0/1024 {
			b.prob = 1.0 / 1024
		}
	} else {
		b.prob += 0.1
		if b.prob > 1 {
			b.prob = 1
		}
	}
	b.kept = 0
	b.periodStart = now
}

// decide runs the verdict for a trace whose root just ended. Verdict
// precedence: error-class > tail outlier > head coin.
func (sp *Sampler) decide(root *trace.Span) {
	buffered := sp.pending[root.TraceID]
	delete(sp.pending, root.TraceID)

	v := VerdictDrop
	if sp.cfg.AlwaysKeep(root) {
		v = VerdictKeepError
	} else {
		for _, s := range buffered {
			if sp.cfg.AlwaysKeep(s) {
				v = VerdictKeepError
				break
			}
		}
	}

	// The tail estimator observes every root (kept or not) so the
	// rolling p95 tracks the true distribution, not the kept sample.
	est, ok := sp.tails[root.Name]
	if !ok {
		est = &tailEst{}
		sp.tails[root.Name] = est
	}
	dur := root.Duration()
	if v == VerdictDrop && est.count() >= sp.cfg.TailMin && dur > est.p95() {
		v = VerdictKeepTail
	}
	est.observe(dur, tailWindow)

	b := sp.band(sp.cfg.BandOf(priorityOf(root)))
	sp.adjust(b)
	if v == VerdictDrop && coin(root.TraceID) < b.prob {
		v = VerdictKeepHead
	}

	sp.decided[root.TraceID] = v
	sp.stats.Traces++
	switch v {
	case VerdictKeepError:
		sp.stats.KeepError++
	case VerdictKeepTail:
		sp.stats.KeepTail++
	case VerdictKeepHead:
		sp.stats.KeepHead++
	}
	if v.Keep() {
		sp.stats.Kept++
		b.kept++
	} else {
		sp.stats.Dropped++
	}
	sp.record(v, sp.cfg.BandOf(priorityOf(root)))
	for _, s := range buffered {
		sp.deliver(s, v)
	}
	sp.deliver(root, v)
}

// FlushOpen decides every still-pending trace as if its root ended now:
// error-class content keeps it, everything else follows the head coin.
// Call after the scenario's tracer FlushOpen so end-of-run remnants are
// classified instead of leaking in the pending buffer.
func (sp *Sampler) FlushOpen() {
	ids := make([]trace.TraceID, 0, len(sp.pending))
	for id := range sp.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		buffered := sp.pending[id]
		delete(sp.pending, id)
		v := VerdictDrop
		for _, s := range buffered {
			if sp.cfg.AlwaysKeep(s) {
				v = VerdictKeepError
				break
			}
		}
		if v == VerdictDrop && coin(id) < initialProb {
			v = VerdictKeepHead
		}
		sp.decided[id] = v
		sp.stats.Traces++
		switch v {
		case VerdictKeepError:
			sp.stats.KeepError++
		case VerdictKeepHead:
			sp.stats.KeepHead++
		}
		if v.Keep() {
			sp.stats.Kept++
		} else {
			sp.stats.Dropped++
		}
		sp.record(v, "")
		for _, s := range buffered {
			sp.deliver(s, v)
		}
	}
}
