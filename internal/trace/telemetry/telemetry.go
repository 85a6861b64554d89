// Package telemetry provides a labeled-metric registry alongside the
// span tracer: counters, gauges and histograms keyed by name plus an
// ordered label set (operation, priority, region, ...). Instruments are
// created on first use and rendered through the existing metrics
// machinery (Summarize for histogram percentiles, Table for aligned
// text), so the RED metrics the QuO layer needs — rate, errors,
// duration per operation/priority/region — come out in the same format
// as the paper's tables.
//
// The registry and its instruments are safe for concurrent use: the
// monitoring plane's HTTP exposition endpoint reads them from a real
// goroutine while the simulation goroutine writes. Iteration for
// rendering is sorted by instrument key so output is deterministic.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Exemplar links one histogram observation back to the concrete trace
// that produced it — the bridge from an aggregate bucket or percentile
// to a causal span tree. IDs are plain integers (not trace package
// types) so telemetry stays decoupled from the tracer.
type Exemplar struct {
	// TraceID / SpanID reference the span whose measurement this is.
	TraceID, SpanID uint64
	// Value is the observed value the exemplar annotates.
	Value float64
	// At is the virtual time of the observation.
	At time.Duration
}

// Valid reports whether the exemplar references a real span.
func (e Exemplar) Valid() bool { return e.TraceID != 0 && e.SpanID != 0 }

// Label is one key=value dimension of an instrument.
type Label struct {
	K, V string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{K: k, V: v} }

// keyOf builds the canonical instrument key: name{k1=v1,k2=v2} with
// labels sorted by key.
func keyOf(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].K < sorted[j].K })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteByte('=')
		b.WriteString(l.V)
	}
	b.WriteByte('}')
	return b.String()
}

// ParseKey splits a canonical instrument key back into its name and
// sorted label set. It is the inverse of keyOf for keys the registry
// minted (label keys and values must not contain ',', '=' or '}').
func ParseKey(key string) (name string, labels []Label) {
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	name = key[:open]
	body := key[open+1 : len(key)-1]
	if body == "" {
		return name, nil
	}
	for _, part := range strings.Split(body, ",") {
		if eq := strings.IndexByte(part, '='); eq >= 0 {
			labels = append(labels, Label{K: part[:eq], V: part[eq+1:]})
		}
	}
	return name, labels
}

// Counter is a monotonically increasing count.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (negative deltas panic: counters only go up).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("telemetry: counter decrement")
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a point-in-time value (queue depth, region index, rate).
type Gauge struct {
	mu  sync.Mutex
	v   float64
	set bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v, g.set = v, true
	g.mu.Unlock()
}

// Add moves the gauge by d (either sign), the usual shape for
// up/down-counted state like queue depth or in-flight requests.
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v, g.set = g.v+d, true
	g.mu.Unlock()
}

// Value returns the last set value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// DefaultReservoirCap bounds the samples a histogram retains. Below the
// cap every observation is kept and summaries are exact; beyond it a
// deterministic reservoir keeps a uniform sample for percentiles while
// count, sum, mean, min and max stay exact.
const DefaultReservoirCap = 4096

// Reservoir is a bounded, deterministic sample of a value stream:
// exact below its capacity, uniform reservoir sampling (Algorithm R
// with a fixed-seed splitmix64 stream, so runs are reproducible) at and
// beyond it. Moment statistics (count, sum, min, max) are tracked
// exactly regardless of capacity. Not safe for concurrent use on its
// own; Histogram adds the locking.
type Reservoir struct {
	cap      int
	n        int64
	sum, sq  float64
	min, max float64
	vs       []float64
	rng      uint64
}

// NewReservoir creates a reservoir keeping at most cap samples
// (DefaultReservoirCap if cap <= 0).
func NewReservoir(cap int) *Reservoir {
	if cap <= 0 {
		cap = DefaultReservoirCap
	}
	return &Reservoir{cap: cap, rng: 0x9e3779b97f4a7c15}
}

// next advances the deterministic splitmix64 stream.
func (r *Reservoir) next() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Observe records one sample.
func (r *Reservoir) Observe(v float64) {
	r.n++
	r.sum += v
	r.sq += v * v
	if r.n == 1 || v < r.min {
		r.min = v
	}
	if r.n == 1 || v > r.max {
		r.max = v
	}
	if len(r.vs) < r.cap {
		r.vs = append(r.vs, v)
		return
	}
	if j := r.next() % uint64(r.n); j < uint64(len(r.vs)) {
		r.vs[j] = v
	}
}

// Sum returns the exact sum of all observations.
func (r *Reservoir) Sum() float64 { return r.sum }

// Reset clears the reservoir.
func (r *Reservoir) Reset() {
	r.n, r.sum, r.sq, r.min, r.max = 0, 0, 0, 0, 0
	r.vs = r.vs[:0]
}

// Summary computes distribution statistics. Below the capacity it is
// byte-for-byte what metrics.Summarize over the full stream returns;
// beyond it, percentiles come from the uniform sample while N, mean,
// std, min and max remain exact.
func (r *Reservoir) Summary() metrics.Summary {
	return summarizeSampled(r.vs, r.n, r.sum, r.sq, r.min, r.max)
}

// summarizeSampled builds a Summary from a retained sample plus the
// exact stream moments, the shared tail of Reservoir.Summary and the
// out-of-lock Histogram.Summary path.
func summarizeSampled(vs []float64, n int64, sum, sq, min, max float64) metrics.Summary {
	if n == 0 {
		return metrics.Summary{}
	}
	s := metrics.Summarize(vs)
	if int64(len(vs)) == n {
		return s
	}
	s.N = int(n)
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	s.Mean = mean
	s.Std = math.Sqrt(variance)
	s.Min, s.Max = min, max
	return s
}

// Histogram accumulates observations for distribution statistics. Its
// memory is bounded: a deterministic reservoir caps retained samples
// (see Reservoir) while counts and moments stay exact. Alongside the
// cumulative distribution it maintains a window reservoir the
// monitoring sampler drains once per tick (TakeWindowEx), which is how
// per-window percentiles reach the time-series plane.
type Histogram struct {
	mu  sync.Mutex
	cum *Reservoir
	win *Reservoir

	// Max-value exemplars: the worst observation seen, cumulatively and
	// within the current window — the tail sample an adaptive trace
	// sampler is most likely to have kept.
	cumEx, winEx Exemplar
}

func (h *Histogram) init() {
	if h.cum == nil {
		h.cum = NewReservoir(0)
		h.win = NewReservoir(0)
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.init()
	h.cum.Observe(v)
	h.win.Observe(v)
	h.mu.Unlock()
}

// ObserveEx records one sample carrying its trace context. The
// histogram retains the max-valued exemplar per window and cumulatively
// (first-seen wins on exact ties, so runs are deterministic).
func (h *Histogram) ObserveEx(v float64, ex Exemplar) {
	ex.Value = v
	h.mu.Lock()
	h.init()
	h.cum.Observe(v)
	h.win.Observe(v)
	if ex.Valid() {
		if !h.cumEx.Valid() || v > h.cumEx.Value {
			h.cumEx = ex
		}
		if !h.winEx.Valid() || v > h.winEx.Value {
			h.winEx = ex
		}
	}
	h.mu.Unlock()
}

// Exemplar returns the cumulative max-value exemplar, if any
// observation carried a trace context.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cumEx, h.cumEx.Valid()
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cum == nil {
		return 0
	}
	return h.cum.Sum()
}

// Summary computes distribution statistics over all observations. The
// retained sample is copied out under the lock (a bounded memcpy) and
// the O(n log n) percentile computation runs outside it, so a scrape
// summarising a full reservoir never blocks the data path's Observe.
func (h *Histogram) Summary() metrics.Summary {
	h.mu.Lock()
	if h.cum == nil {
		h.mu.Unlock()
		return metrics.Summary{}
	}
	vs := append([]float64(nil), h.cum.vs...)
	n, sum, sq := h.cum.n, h.cum.sum, h.cum.sq
	min, max := h.cum.min, h.cum.max
	h.mu.Unlock()
	return summarizeSampled(vs, n, sum, sq, min, max)
}

// TakeWindowEx summarizes the observations since the previous call (or
// since creation) and resets the window, leaving the cumulative
// distribution untouched. It also returns the window's max-value
// exemplar (ok reports whether any observation in the window carried
// one).
func (h *Histogram) TakeWindowEx() (metrics.Summary, Exemplar, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.win == nil {
		return metrics.Summary{}, Exemplar{}, false
	}
	s := h.win.Summary()
	h.win.Reset()
	ex := h.winEx
	h.winEx = Exemplar{}
	return s, ex, ex.Valid()
}

// Registry holds labeled instruments, created on first use. It is safe
// for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the counter for name+labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	k := keyOf(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	k := keyOf(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram for
// name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	k := keyOf(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[k]
	if !ok {
		h = &Histogram{}
		r.histograms[k] = h
	}
	return h
}

func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterKeys returns the canonical keys of every counter, sorted. The
// monitoring sampler enumerates instruments through these helpers.
func (r *Registry) CounterKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.counters)
}

// GaugeKeys returns the canonical keys of every gauge, sorted.
func (r *Registry) GaugeKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.gauges)
}

// HistogramKeys returns the canonical keys of every histogram, sorted.
func (r *Registry) HistogramKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.histograms)
}

// CounterByKey returns the counter for a canonical key, or nil.
func (r *Registry) CounterByKey(key string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[key]
}

// GaugeByKey returns the gauge for a canonical key, or nil.
func (r *Registry) GaugeByKey(key string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[key]
}

// HistogramByKey returns the histogram for a canonical key, or nil.
func (r *Registry) HistogramByKey(key string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histograms[key]
}

// CounterTable renders all counters as a metrics.Table, sorted by key.
func (r *Registry) CounterTable() *metrics.Table {
	tb := metrics.NewTable("Counters", "Metric", "Value")
	for _, k := range r.CounterKeys() {
		tb.AddRow(k, fmt.Sprintf("%g", r.CounterByKey(k).Value()))
	}
	return tb
}

// GaugeTable renders all gauges as a metrics.Table, sorted by key.
func (r *Registry) GaugeTable() *metrics.Table {
	tb := metrics.NewTable("Gauges", "Metric", "Value")
	for _, k := range r.GaugeKeys() {
		tb.AddRow(k, fmt.Sprintf("%g", r.GaugeByKey(k).Value()))
	}
	return tb
}

// HistogramTable renders all histograms with their distribution
// statistics, sorted by key.
func (r *Registry) HistogramTable() *metrics.Table {
	tb := metrics.NewTable("Histograms", "Metric", "N", "Mean", "P50", "P95", "P99", "Max")
	for _, k := range r.HistogramKeys() {
		s := r.HistogramByKey(k).Summary()
		tb.AddRow(k,
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.6g", s.Mean),
			fmt.Sprintf("%.6g", s.P50),
			fmt.Sprintf("%.6g", s.P95),
			fmt.Sprintf("%.6g", s.P99),
			fmt.Sprintf("%.6g", s.Max),
		)
	}
	return tb
}

// Render produces every non-empty table, in counter/gauge/histogram
// order.
func (r *Registry) Render() string {
	r.mu.Lock()
	nc, ng, nh := len(r.counters), len(r.gauges), len(r.histograms)
	r.mu.Unlock()
	var b strings.Builder
	if nc > 0 {
		b.WriteString(r.CounterTable().Render())
	}
	if ng > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.GaugeTable().Render())
	}
	if nh > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.HistogramTable().Render())
	}
	return b.String()
}
