package main

// This file is the benchmark's contract: workload names, every metric's
// name, unit, direction and bound. The smoke test checks that
// BENCHMARK.json says the same.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is the absolute change below which -compare reports
	// unchanged whatever the relative change (BENCHMARK.json's bounds
	// are relative only).
	Floor float64 `json:"-"`
}

// One run of a workload is repsPerRun child-process repetitions of
// runSeconds/repsPerRun measured seconds each; the reported value of a
// metric is the median of the repetitions'. runSeconds is the -seconds
// default, BENCHMARK.json's run_seconds and the shape
// bench/baseline/seed.json was measured in.
const (
	repsPerRun = 3
	runSeconds = 24
)

// driverTail gives, for the two workloads whose 99th percentile cannot
// gate a later change, the percentile their driver-form line prints as
// lat_p99_us instead (the driver wants every end-to-end metric from
// every workload, held to one bound). sim_paper has ten passes in a
// repetition, so the median is the highest percentile it supports.
// echo_large's 99th percentile moves between 2.9 and 5.0 ms from one
// repetition of unchanged code to the next while its 95th holds
// (bench/README.md); a gate on it would fire at random. The full run,
// the run file and -compare keep the real 99th percentile.
var driverTail = map[string]float64{"echo_large": 0.95, "sim_paper": 0.50}

var workloads = []workloadSpec{
	{"echo_small", "2 closed-loop EF callers, 64 B echo: fixed per-message cost of cdr/giop/wire/telemetry is the whole bill; batching and lock work must show no change here"},
	{"echo_large", "as echo_small with a 64 KiB body: byte copies and buffer growth dominate, so copy avoidance shows here and pools tuned for small messages show their cost"},
	{"mixed_flood", "32 outstanding BE calls saturate the 1-worker BE lane while 1 EF caller is timed: the paper's isolation claim at CPU saturation; exercises pipelining, write locks, lane queues"},
	{"pubsub_fanout", "1 publisher to 8 EF subscribers through wire.ChannelHost, 16 events in flight: the only one-to-many path, where encode-once/send-N can show; echo workloads bypass it"},
	{"sim_paper", "experiments.Verify passes back to back: the only workload through sim/orb/rtcorba/netsim/rtos/quo/avstreams; guards the virtual-time plane against codec changes tuned for sockets"},
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// failRatio is the ninth end-to-end metric. It is 0 at the seed commit
// and its bound is absolute: failRatioBound is the rise -compare treats
// as a regression. BENCHMARK.json's end-to-end bounds are shares of a
// median that may never be 0, so there it is listed without a bound
// after the per-layer rows, and the driver form also carries it as
// failed / attempted.
var failRatio = metricSpec{Name: "fail_ratio", Unit: "ratio", Better: "lower"}

const failRatioBound = 0.001

func lower(unit string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// isolatedLayers are measured by tight loops over exported functions
// (layers.go) and do not depend on the workload.
var isolatedLayers = concat(
	lower("ns", "cdr.encode_ns.64", "cdr.encode_ns.64k", "cdr.decode_ns.64", "cdr.decode_ns.64k"),
	lower("count", "cdr.encode_allocs.64"),
	lower("B", "cdr.encode_bytes.64k", "cdr.decode_bytes.64k"),
	lower("ns", "giop.contexts_ns", "giop.request_marshal_ns.64", "giop.request_marshal_ns.64k",
		"giop.reply_marshal_ns.64", "giop.reply_marshal_ns.64k", "giop.readframe_ns.64", "giop.readframe_ns.64k",
		"giop.decode_ns.64", "giop.decode_ns.64k", "giop.event_context_ns"),
	lower("count", "giop.contexts_allocs", "giop.request_marshal_allocs.64", "giop.decode_allocs.64"),
	lower("B", "giop.request_marshal_bytes.64k", "giop.decode_bytes.64k"),
	lower("ns", "wire.client.invoke_ns.64", "wire.server.serve_ns.64", "wire.server.ft_serve_ns.64"),
	lower("count", "wire.client.invoke_allocs.64", "wire.server.serve_allocs.64"),
	lower("B", "wire.client.invoke_bytes.64k", "wire.server.serve_bytes.64k"),
	lower("ns", "telemetry.counter_lookup_inc_ns", "telemetry.observe_ex_ns", "trace.span_ns", "breaker.allow_record_ns",
		"pubsub.publish_ns_per_sub", "pubsub.pump_ns", "wire.pubsub.push_ns", "sim.event_ns", "gen.overhead_ns"),
	lower("count", "telemetry.counter_lookup_inc_allocs", "trace.span_allocs", "pubsub.publish_allocs_per_sub",
		"wire.pubsub.push_allocs", "sim.event_allocs", "gen.allocs_per_op", "experiments.table1_allocs", "experiments.fig4_allocs"),
	lower("B", "wire.pubsub.push_bytes"),
	lower("ms", "experiments.fig2_ms", "experiments.fig4_ms", "experiments.fig5_ms", "experiments.fig6_ms",
		"experiments.table1_ms", "experiments.table2_ms"),
)

// inRunLayers are read from the objects a workload built (Registry,
// Snapshot, runtime) or from the bench's own spans in the traced pass;
// one that does not apply to a workload reads 0 there.
var inRunLayers = concat(
	lower("count", "wire.client.dials", "wire.client.orphan_replies", "wire.client.breaker_transitions"),
	lower("us", "wire.server.queue_wait_p50_us.be", "wire.server.queue_wait_p99_us.be",
		"wire.server.queue_wait_p99_us.ef", "wire.server.exec_p50_us"),
	[]metricSpec{{Name: "wire.server.served.be", Unit: "count", Better: "higher"}, {Name: "wire.server.served.ef", Unit: "count", Better: "higher"}},
	lower("count", "wire.server.refused", "wire.server.deadline_shed",
		"pubsub.dropped", "pubsub.coalesced", "pubsub.refused", "pubsub.outbox_depth_max",
		"runtime.gc_cycles", "runtime.goroutines_peak"),
	lower("ms", "runtime.gc_pause_ms"),
	lower("us", "path.request_us", "path.servant_us", "path.reply_us", "path.publish_us", "path.outbox_push_us"),
)

// crossLayers need two measurements: a traced and an untraced pass, or
// the isolated loops and echo_small's median latency.
var crossLayers = []metricSpec{
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "path.sum_over_rtt", Unit: "ratio", Better: "lower"},
}

var perLayer = concat(isolatedLayers, inRunLayers, crossLayers, []metricSpec{failRatio})

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
