package rtos

import (
	"repro/internal/sim"
)

// ExecSpan records one contiguous stretch of CPU time given to a thread.
type ExecSpan struct {
	Thread string
	Start  sim.Time
	End    sim.Time
}

// Tracer records the CPU's execution timeline — which thread ran when —
// for asserting scheduling properties in tests, which attach one to a
// CPU's tracer field. Consecutive spans of the same thread are coalesced.
type Tracer struct {
	spans []ExecSpan
}

// record appends execution of t over [from, to).
func (tr *Tracer) record(t *Thread, from, to sim.Time) {
	if to <= from {
		return
	}
	name := t.Name()
	if n := len(tr.spans); n > 0 && tr.spans[n-1].Thread == name && tr.spans[n-1].End == from {
		tr.spans[n-1].End = to
		return
	}
	tr.spans = append(tr.spans, ExecSpan{Thread: name, Start: from, End: to})
}
