package quo

import (
	"sort"

	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// Observability for the adaptive layer: a contract can carry a
// long-lived span on the quo layer whose events record every evaluation
// and region transition, and mirror its counters and condition values
// into a telemetry registry. Together with the per-invocation traces
// recorded by the ORB this shows *why* the middleware adapted, next to
// *what* the adaptation did to latency.

// AttachTracer opens a long-lived span for the contract. Evaluations
// and region transitions are recorded as events on it. The span stays
// open for the contract's lifetime; exporters flush it via
// Tracer.FlushOpen at end of run.
func (c *Contract) AttachTracer(tr *trace.Tracer) *Contract {
	c.span = tr.StartRoot("contract "+c.name, trace.LayerQuO)
	return c
}

// Instrument mirrors the contract's activity into reg: an evaluation
// counter, a transition counter labeled by destination region, and one
// gauge per system condition.
func (c *Contract) Instrument(reg *telemetry.Registry) *Contract {
	c.reg = reg
	return c
}

// observe records one evaluation outcome on the attached span and
// registry (both optional).
func (c *Contract) observe(v Values, from, to string, changed bool) {
	if c.span != nil {
		if changed {
			c.span.Event("transition", trace.String("from", from), trace.String("to", to))
		} else {
			c.span.Event("eval", trace.String("region", to))
		}
	}
	if c.reg != nil {
		lc := telemetry.L("contract", c.name)
		c.reg.Counter("quo.evals", lc).Inc()
		if changed {
			c.reg.Counter("quo.transitions", lc, telemetry.L("to", to)).Inc()
		}
		names := make([]string, 0, len(v))
		for n := range v {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			c.reg.Gauge("quo.cond", lc, telemetry.L("cond", n)).Set(v[n])
		}
	}
}
