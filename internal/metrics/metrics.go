// Package metrics provides the measurement and reporting plumbing shared
// by the experiments: time series of latency samples, summary statistics
// (mean, standard deviation, percentiles), aligned-text table
// rendering for the paper's tables and figure series, and the claims
// (Check) every run states about itself.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Point is one time-stamped observation.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// AddDuration appends a duration observation in seconds.
func (s *Series) AddDuration(t sim.Time, d time.Duration) {
	s.Add(t, d.Seconds())
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Values returns the observation values in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Window returns the sub-series with from <= T < to.
func (s *Series) Window(from, to sim.Time) *Series {
	out := NewSeries(s.Name)
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Summary reports the distribution of a set of observations.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Summarize computes a Summary over vs. An empty input yields zeros.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	sum, sqSum := 0.0, 0.0
	for _, v := range sorted {
		sum += v
		sqSum += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sqSum/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	// Percentiles interpolate linearly between order statistics (the
	// same convention as numpy's default): the previous truncation of
	// q*(n-1) biased every percentile low, up to a whole sample's worth
	// on small n.
	pct := func(q float64) float64 {
		rank := q * float64(len(sorted)-1)
		lo := int(rank)
		if lo >= len(sorted)-1 {
			return sorted[len(sorted)-1]
		}
		frac := rank - float64(lo)
		return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
	}
	return Summary{
		N:    len(sorted),
		Mean: mean,
		Std:  math.Sqrt(variance),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
	}
}

// Summarize returns the summary of the series values.
func (s *Series) Summarize() Summary { return Summarize(s.Values()) }

// MeanDuration returns the mean as a duration (values are seconds).
func (sm Summary) MeanDuration() time.Duration {
	return time.Duration(sm.Mean * float64(time.Second))
}

// StdDuration returns the standard deviation as a duration.
func (sm Summary) StdDuration() time.Duration {
	return time.Duration(sm.Std * float64(time.Second))
}

// Table renders aligned text tables, the output format of the benchmark
// harness (one table per paper table, one series block per figure).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		cells = cells[:len(t.Headers)]
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render produces the aligned text form.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Check is one claim a run states about itself — a qualitative result
// of the paper or an invariant of an extension — tested against that
// run's own measurements.
type Check struct {
	Experiment string
	Claim      string
	OK         bool
	Detail     string
}

// RenderChecks prints checks as a table under title plus a verdict
// line.
func RenderChecks(title string, checks []Check) string {
	tb := NewTable(title, "Experiment", "Claim", "Result", "Measured")
	pass := 0
	for _, c := range checks {
		verdict := "FAIL"
		if c.OK {
			verdict = "ok"
			pass++
		}
		tb.AddRow(c.Experiment, c.Claim, verdict, c.Detail)
	}
	var b strings.Builder
	b.WriteString(tb.Render())
	fmt.Fprintf(&b, "\n%d/%d claims reproduced\n", pass, len(checks))
	return b.String()
}

// WriteCSV emits the series as "seconds,value" rows with a header.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_seconds,%s\n", s.Name); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.6f,%g\n", p.T.Seconds(), p.V); err != nil {
			return err
		}
	}
	return nil
}

// FormatDuration renders a duration with millisecond precision, the
// units the paper's tables use.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.1f ms", float64(d)/float64(time.Millisecond))
}

// FormatPercent renders a fraction as a percentage.
func FormatPercent(frac float64) string {
	return fmt.Sprintf("%.1f%%", 100*frac)
}
