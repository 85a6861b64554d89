package quo

import (
	"time"

	"repro/internal/sim"
)

// RegionSpan is one stretch of time a contract spent in a region.
type RegionSpan struct {
	Region string
	Start  sim.Time
	End    sim.Time // zero while the span is still open
}

// Duration returns the span length; open spans measure up to `now`.
func (s RegionSpan) DurationAt(now sim.Time) time.Duration {
	end := s.End
	if end == 0 {
		end = now
	}
	return time.Duration(end - s.Start)
}

// History records a contract's region timeline — the observability QuO
// operators need to answer "where did the contract spend the mission?".
type History struct {
	spans []RegionSpan
}

// NewHistory attaches a recorder to contract c, capturing every
// transition from now on.
func NewHistory(k *sim.Kernel, c *Contract) *History {
	h := &History{}
	c.OnTransition(func(from, to string, _ Values) {
		now := k.Now()
		if n := len(h.spans); n > 0 && h.spans[n-1].End == 0 {
			h.spans[n-1].End = now
		}
		h.spans = append(h.spans, RegionSpan{Region: to, Start: now})
	})
	return h
}

// Spans returns the recorded timeline.
func (h *History) Spans() []RegionSpan { return h.spans }
