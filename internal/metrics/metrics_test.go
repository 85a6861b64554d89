package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary = %+v", s)
	}
	wantStd := math.Sqrt(2) // population std of 1..5
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummaryDurations(t *testing.T) {
	s := Summarize([]float64{0.010, 0.020, 0.030})
	if s.MeanDuration() != 20*time.Millisecond {
		t.Fatalf("mean duration = %v", s.MeanDuration())
	}
	if s.StdDuration() < 8*time.Millisecond || s.StdDuration() > 8300*time.Microsecond {
		t.Fatalf("std duration = %v", s.StdDuration())
	}
}

func TestSeriesWindow(t *testing.T) {
	s := NewSeries("lat")
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	w := s.Window(3*time.Second, 6*time.Second)
	if w.Len() != 3 {
		t.Fatalf("window length = %d", w.Len())
	}
	if w.Points[0].V != 3 || w.Points[2].V != 5 {
		t.Fatalf("window values = %v", w.Values())
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table 1", "Case", "% Delivered", "Latency")
	tb.AddRow("No Adaptation", "0.8%", "324.0 ms")
	tb.AddRow("Full Reservation", "100.0%", "190.0 ms")
	out := tb.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "No Adaptation") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, headers, separator, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// All data lines align: same column start for second column.
	idx := strings.Index(lines[1], "% Delivered")
	for _, ln := range lines[3:] {
		if len(ln) < idx {
			t.Fatalf("short row %q", ln)
		}
	}
}

func TestTableRowTruncation(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("1", "2", "3", "4")
	if len(tb.Rows[0]) != 2 {
		t.Fatalf("row = %v", tb.Rows[0])
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatDuration(1500 * time.Microsecond); got != "1.5 ms" {
		t.Fatalf("FormatDuration = %q", got)
	}
	if got := FormatPercent(0.835); got != "83.5%" {
		t.Fatalf("FormatPercent = %q", got)
	}
}

// Property: min <= p50 <= p95 <= p99 <= max and min <= mean <= max.
func TestSummaryInvariants(t *testing.T) {
	prop := func(vs []float64) bool {
		clean := vs[:0]
		for _, v := range vs {
			// Keep magnitudes sane so sums cannot overflow to Inf.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		const eps = 1e-9
		return s.Min <= s.P50+eps && s.P50 <= s.P95+eps && s.P95 <= s.P99+eps &&
			s.P99 <= s.Max+eps && s.Min <= s.Mean+eps && s.Mean <= s.Max+eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := NewSeries("latency")
	s.Add(time.Second, 0.5)
	s.Add(2*time.Second, 1.25)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "t_seconds,latency\n1.000000,0.5\n2.000000,1.25\n"
	if b.String() != want {
		t.Fatalf("csv = %q", b.String())
	}
}

func TestASCIIPlot(t *testing.T) {
	s := NewSeries("lat")
	for i := 0; i < 50; i++ {
		v := 0.001
		if i >= 20 && i < 30 {
			v = 1.0 // a congestion plateau
		}
		s.Add(time.Duration(i)*time.Second, v)
	}
	out := ASCIIPlot(s, 50, 8)
	if !strings.Contains(out, "lat") || !strings.Contains(out, "*") {
		t.Fatalf("plot:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Header + 8 rows + axis + footer.
	if len(lines) < 11 {
		t.Fatalf("plot too short:\n%s", out)
	}
	// The plateau puts stars on the top row; the baseline on the bottom.
	if !strings.Contains(lines[1], "*") {
		t.Fatalf("no stars on top row:\n%s", out)
	}
	if !strings.Contains(lines[8], "*") {
		t.Fatalf("no stars on bottom row:\n%s", out)
	}
	if got := ASCIIPlot(NewSeries("empty"), 40, 8); !strings.Contains(got, "no data") {
		t.Fatalf("empty plot: %q", got)
	}
}

// Regression for the percentile truncation bug: int(q*(n-1)) floored the
// rank, so e.g. P50 of [1 2 3 4] came out as 2 instead of 2.5 and every
// percentile was biased low by up to one whole sample on small n.
func TestPercentilesInterpolate(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.P50 != 2.5 {
		t.Fatalf("P50 = %v, want 2.5", s.P50)
	}
	if want := 1 + 0.95*3; math.Abs(s.P95-want) > 1e-12 {
		t.Fatalf("P95 = %v, want %v", s.P95, want)
	}
	if want := 1 + 0.99*3; math.Abs(s.P99-want) > 1e-12 {
		t.Fatalf("P99 = %v, want %v", s.P99, want)
	}

	// Exact ranks still land on the order statistic itself.
	odd := Summarize([]float64{10, 20, 30})
	if odd.P50 != 20 {
		t.Fatalf("odd P50 = %v, want 20", odd.P50)
	}
	// Degenerate inputs.
	one := Summarize([]float64{7})
	if one.P50 != 7 || one.P95 != 7 || one.P99 != 7 {
		t.Fatalf("single-sample percentiles = %+v", one)
	}
}
