// Package monitor is the live QoS monitoring plane: it samples the
// telemetry registry on sim-clock ticks into bounded ring-buffer time
// series, exposes current state in Prometheus text exposition format
// (pure Render or an optional net/http endpoint with pprof wiring),
// merges middleware occurrences into one ordered event timeline via the
// events bus, and feeds sampled series back into QuO system condition
// objects so contracts react to measured conditions — the monitoring-
// feeds-adaptation loop the paper's QuO system condition objects embody.
package monitor

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// Window is one closed sampling interval of a series.
type Window struct {
	Start, End sim.Time
	metrics.Summary
	// Exemplar links the window's worst observation to a concrete trace
	// (histogram windows only; Valid() false when no observation in the
	// window carried a trace context).
	Exemplar telemetry.Exemplar
}

// Rate returns observations-weighted throughput: Sum over the window
// length in seconds (for counter-delta series, the per-second rate).
func (w Window) Rate() float64 {
	d := (w.End - w.Start).Seconds()
	if d <= 0 {
		return 0
	}
	return w.Mean * float64(w.N) / d
}

// Stat selects one statistic of a window.
type Stat int

const (
	// StatMean is the window mean.
	StatMean Stat = iota + 1
	// StatMin is the window minimum.
	StatMin
	// StatMax is the window maximum.
	StatMax
	// StatP50 is the window median.
	StatP50
	// StatP95 is the window 95th percentile.
	StatP95
	// StatP99 is the window 99th percentile.
	StatP99
	// StatCount is the number of observations in the window.
	StatCount
	// StatRate is Sum/window-length: the per-second rate of a
	// counter-delta series.
	StatRate
)

func (s Stat) String() string {
	switch s {
	case StatMean:
		return "mean"
	case StatMin:
		return "min"
	case StatMax:
		return "max"
	case StatP50:
		return "p50"
	case StatP95:
		return "p95"
	case StatP99:
		return "p99"
	case StatCount:
		return "count"
	case StatRate:
		return "rate"
	default:
		return fmt.Sprintf("Stat(%d)", int(s))
	}
}

// Of extracts the statistic from a window.
func (s Stat) Of(w Window) float64 {
	switch s {
	case StatMean:
		return w.Mean
	case StatMin:
		return w.Min
	case StatMax:
		return w.Max
	case StatP50:
		return w.P50
	case StatP95:
		return w.P95
	case StatP99:
		return w.P99
	case StatCount:
		return float64(w.N)
	case StatRate:
		return w.Rate()
	default:
		return 0
	}
}

// DefaultWindows is the ring capacity when a Series is created with no
// explicit window count: enough for a 60s scenario sampled at 250ms.
const DefaultWindows = 256

// Series is a bounded time series of window summaries: observations
// accumulate in a deterministic reservoir until Roll closes the window,
// and closed windows live in a fixed-capacity ring (oldest evicted
// first), so a long-running scenario's monitoring memory is bounded no
// matter how often it samples. Series are safe for concurrent use: a
// wall-clock sampler goroutine may roll windows while condition objects
// and dashboards read them.
type Series struct {
	Name string
	mu   sync.Mutex
	res  *telemetry.Reservoir
	wins []Window
	head int // index of oldest
	n    int // number of valid windows
}

// NewSeries creates a series retaining at most windows closed windows
// (DefaultWindows if <= 0).
func NewSeries(name string, windows int) *Series {
	if windows <= 0 {
		windows = DefaultWindows
	}
	return &Series{Name: name, res: telemetry.NewReservoir(0), wins: make([]Window, windows)}
}

// Observe records one value into the currently open window.
func (s *Series) Observe(v float64) {
	s.mu.Lock()
	s.res.Observe(v)
	s.mu.Unlock()
}

// Roll closes the open window over [start, end), appending its summary
// to the ring and resetting the reservoir.
func (s *Series) Roll(start, end sim.Time) Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := Window{Start: start, End: end, Summary: s.res.Summary()}
	s.res.Reset()
	s.append(w)
	return w
}

// Append adds an externally summarized window (the sampler uses it for
// histogram windows drained via TakeWindowEx).
func (s *Series) Append(w Window) {
	s.mu.Lock()
	s.append(w)
	s.mu.Unlock()
}

func (s *Series) append(w Window) {
	if s.n < len(s.wins) {
		s.wins[(s.head+s.n)%len(s.wins)] = w
		s.n++
		return
	}
	s.wins[s.head] = w
	s.head = (s.head + 1) % len(s.wins)
}

func (s *Series) window(i int) Window { return s.wins[(s.head+i)%len(s.wins)] }

// Windows returns the retained windows, oldest first.
func (s *Series) Windows() []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Window, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.window(i)
	}
	return out
}

// Last returns the most recently closed window.
func (s *Series) Last() (Window, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Window{}, false
	}
	return s.window(s.n - 1), true
}

// LastNonEmpty returns the most recent window holding at least one
// observation — the value a condition should act on when the source
// went quiet for a tick.
func (s *Series) LastNonEmpty() (Window, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := s.n - 1; i >= 0; i-- {
		if w := s.window(i); w.N > 0 {
			return w, true
		}
	}
	return Window{}, false
}

// RenderTable renders the retained windows as a metrics.Table with one
// row per window, the dashboard's figure-series form.
func (s *Series) RenderTable(title string) *metrics.Table {
	tb := metrics.NewTable(title, "t", "n", "mean", "p50", "p95", "p99", "max", "exemplar")
	for _, w := range s.Windows() {
		ex := "-"
		if w.Exemplar.Valid() {
			ex = fmt.Sprintf("trace=%d", w.Exemplar.TraceID)
		}
		tb.AddRow(
			fmt.Sprint(time.Duration(w.End)),
			fmt.Sprint(w.N),
			fmt.Sprintf("%.6g", w.Mean),
			fmt.Sprintf("%.6g", w.P50),
			fmt.Sprintf("%.6g", w.P95),
			fmt.Sprintf("%.6g", w.P99),
			fmt.Sprintf("%.6g", w.Max),
			ex,
		)
	}
	return tb
}

// Sparkline renders the chosen statistic of every retained window as a
// compact unicode strip, for timeline-at-a-glance output.
func (s *Series) Sparkline(st Stat) string {
	ws := s.Windows()
	if len(ws) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	lo, hi := st.Of(ws[0]), st.Of(ws[0])
	for _, w := range ws[1:] {
		v := st.Of(w)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, w := range ws {
		idx := 0
		if hi > lo {
			idx = int((st.Of(w) - lo) / (hi - lo) * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
