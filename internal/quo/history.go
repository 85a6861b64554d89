package quo

import (
	"fmt"
	"strings"
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
	k     *sim.Kernel
	spans []RegionSpan
}

// NewHistory attaches a recorder to contract c, capturing every
// transition from now on.
func NewHistory(k *sim.Kernel, c *Contract) *History {
	h := &History{k: k}
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

// TimeIn sums the time spent in a region (open span counts to now).
func (h *History) TimeIn(region string) time.Duration {
	now := h.k.Now()
	var total time.Duration
	for _, s := range h.spans {
		if s.Region == region {
			total += s.DurationAt(now)
		}
	}
	return total
}

// Render prints the timeline, one span per line.
func (h *History) Render() string {
	now := h.k.Now()
	var b strings.Builder
	for _, s := range h.spans {
		fmt.Fprintf(&b, "%12v  %-16s %v\n", s.Start, s.Region, s.DurationAt(now))
	}
	return b.String()
}
