package monitor

import (
	rm "runtime/metrics"
	"sync"

	"repro/internal/trace/telemetry"
)

// RuntimeCollector samples the Go runtime's own health — scheduler,
// heap, and GC — into a telemetry registry via runtime/metrics, so a
// live process's /metrics scrape and sampled series carry the process
// vitals next to the middleware's QoS instruments.
//
// Mapping:
//
//   - go.goroutines (gauge): live goroutine count
//   - go.heap_objects_bytes (gauge): bytes in live + unswept heap objects
//   - go.mem_total_bytes (gauge): all memory mapped by the runtime
//   - go.heap_alloc_bytes (counter): cumulative allocated bytes
//   - go.gc_cycles (counter): completed GC cycles
//   - go.gc_pause_ms (histogram + p50/p99 gauges): stop-the-world pauses
//   - go.sched_latency_ms (histogram + p50/p99 gauges): goroutine
//     run-queue wait
//
// The runtime exposes pause and latency distributions as cumulative
// bucket counts; Collect observes per-bucket deltas (capped per collect
// so a busy scheduler cannot flood a reservoir) at bucket midpoints,
// and additionally publishes exact whole-distribution quantile gauges
// (go.*_p50_ms / go.*_p99_ms) computed from the cumulative histogram.
//
// Collect is cheap (a single runtime/metrics read) and safe for
// concurrent use; register it on a sampler via AddCollector so every
// window carries fresh runtime state.
type RuntimeCollector struct {
	reg *telemetry.Registry

	mu      sync.Mutex
	samples []rm.Sample
	prev    map[string][]uint64 // histogram metric -> previous bucket counts
}

// histObsCap bounds histogram observations per metric per collect: the
// reservoir keeps an exact distribution for small deltas while a storm
// of sched events cannot make Collect O(events).
const histObsCap = 128

// runtimeMetricNames are the runtime/metrics keys the collector reads.
var runtimeMetricNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// NewRuntimeCollector creates a collector writing into reg.
func NewRuntimeCollector(reg *telemetry.Registry) *RuntimeCollector {
	c := &RuntimeCollector{reg: reg, prev: make(map[string][]uint64)}
	c.samples = make([]rm.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		c.samples[i].Name = name
	}
	return c
}

// Collect reads the runtime metrics once and updates the registry.
func (c *RuntimeCollector) Collect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	rm.Read(c.samples)
	for _, s := range c.samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			c.gaugeUint("go.goroutines", s.Value)
		case "/memory/classes/heap/objects:bytes":
			c.gaugeUint("go.heap_objects_bytes", s.Value)
		case "/memory/classes/total:bytes":
			c.gaugeUint("go.mem_total_bytes", s.Value)
		case "/gc/heap/allocs:bytes":
			c.counterUint("go.heap_alloc_bytes", s.Value)
		case "/gc/cycles/total:gc-cycles":
			c.counterUint("go.gc_cycles", s.Value)
		case "/gc/pauses:seconds":
			c.histSeconds("go.gc_pause_ms", s.Name, s.Value)
		case "/sched/latencies:seconds":
			c.histSeconds("go.sched_latency_ms", s.Name, s.Value)
		}
	}
}

func (c *RuntimeCollector) gaugeUint(name string, v rm.Value) {
	if v.Kind() != rm.KindUint64 {
		return
	}
	c.reg.Gauge(name).Set(float64(v.Uint64()))
}

// counterUint sets the cumulative counter to the runtime's own
// cumulative value (counters only grow, so Add the delta).
func (c *RuntimeCollector) counterUint(name string, v rm.Value) {
	if v.Kind() != rm.KindUint64 {
		return
	}
	ctr := c.reg.Counter(name)
	if d := float64(v.Uint64()) - ctr.Value(); d > 0 {
		ctr.Add(d)
	}
}

// histSeconds folds a cumulative runtime histogram (seconds) into a
// telemetry histogram in milliseconds: per-bucket count deltas since
// the previous collect are observed at bucket midpoints (capped), and
// exact overall p50/p99 gauges are computed from the full cumulative
// distribution.
func (c *RuntimeCollector) histSeconds(name, key string, v rm.Value) {
	if v.Kind() != rm.KindFloat64Histogram {
		return
	}
	h := v.Float64Histogram()
	if h == nil || len(h.Counts) == 0 {
		return
	}
	prev := c.prev[key]
	hist := c.reg.Histogram(name)
	budget := histObsCap
	for i, n := range h.Counts {
		var d uint64
		if i < len(prev) {
			if n > prev[i] {
				d = n - prev[i]
			}
		} else {
			d = n
		}
		if d == 0 || budget == 0 {
			continue
		}
		mid := bucketMid(h.Buckets, i)
		obs := int(d)
		if obs > budget {
			obs = budget
		}
		budget -= obs
		for j := 0; j < obs; j++ {
			hist.Observe(mid * 1000) // seconds -> ms
		}
	}
	// Remember the cumulative counts for the next delta.
	if cap(prev) < len(h.Counts) {
		prev = make([]uint64, len(h.Counts))
	}
	prev = prev[:len(h.Counts)]
	copy(prev, h.Counts)
	c.prev[key] = prev

	c.reg.Gauge(name + "_p50").Set(histQuantile(h, 0.50) * 1000)
	c.reg.Gauge(name + "_p99").Set(histQuantile(h, 0.99) * 1000)
}

// bucketMid returns the midpoint of bucket i for a runtime histogram
// with len(buckets) == len(counts)+1, tolerating ±Inf edge buckets.
func bucketMid(buckets []float64, i int) float64 {
	lo, hi := buckets[i], buckets[i+1]
	switch {
	case lo <= -1e308 || lo != lo: // -Inf or NaN lower edge
		return hi
	case hi >= 1e308 || hi != hi: // +Inf or NaN upper edge
		return lo
	default:
		return (lo + hi) / 2
	}
}

// histQuantile computes quantile q from a cumulative runtime histogram
// (upper bucket bound of the bucket containing the q-th event).
func histQuantile(h *rm.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range h.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i, n := range h.Counts {
		seen += n
		if n > 0 && seen > target {
			return bucketMid(h.Buckets, i)
		}
	}
	return bucketMid(h.Buckets, len(h.Counts)-1)
}
