package experiments

import (
	"slices"

	"repro/internal/metrics"
)

// Extensions runs every seeded extension scenario — overload, failover
// with and without recovery, SLO, monitor and trace — side by side and
// returns the claims each states about its own run.
func Extensions(opt Options) []metrics.Check {
	var (
		over        OverloadResult
		fail, recov FailoverResult
		slo         SLOResult
		mon         MonitorResult
		tr          TraceResult
	)
	runCases([]simCase{
		{"overload", func() { over = RunOverload(opt) }},
		{"failover", func() { fail = RunFailover(opt, false) }},
		{"failover-recover", func() { recov = RunFailover(opt, true) }},
		{"slo", func() { slo = RunSLO(opt) }},
		{"monitor", func() { mon = RunMonitor(opt) }},
		{"trace", func() { tr = RunTrace(opt, nil) }},
	})
	return slices.Concat(over.Checks(), fail.Checks(), recov.Checks(), slo.Checks(), mon.Checks(), tr.Checks())
}
