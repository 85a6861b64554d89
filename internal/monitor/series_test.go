package monitor

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSeriesRoll(t *testing.T) {
	s := NewSeries("lat", 8)
	for _, v := range []float64{10, 20, 30} {
		s.Observe(v)
	}
	w := s.Roll(0, sim.Time(time.Second))
	if w.N != 3 || w.Mean != 20 || w.Min != 10 || w.Max != 30 {
		t.Fatalf("window = %+v", w.Summary)
	}
	// Reservoir reset: the next window is independent.
	s.Observe(100)
	w2 := s.Roll(w.End, w.End+sim.Time(time.Second))
	if w2.N != 1 || w2.Mean != 100 {
		t.Fatalf("second window = %+v", w2.Summary)
	}
	if len(s.Windows()) != 2 {
		t.Fatalf("len = %d", len(s.Windows()))
	}
}

func TestSeriesRingEviction(t *testing.T) {
	s := NewSeries("x", 4)
	for i := 0; i < 10; i++ {
		s.Append(Window{Start: sim.Time(i), End: sim.Time(i + 1), Summary: metrics.Summary{N: i}})
	}
	if len(s.Windows()) != 4 {
		t.Fatalf("len = %d, want ring cap 4", len(s.Windows()))
	}
	ws := s.Windows()
	for i, w := range ws {
		if w.N != 6+i {
			t.Fatalf("window %d has N=%d, want %d (oldest evicted first)", i, w.N, 6+i)
		}
	}
	last, ok := s.Last()
	if !ok || last.N != 9 {
		t.Fatalf("last = %+v ok=%v", last, ok)
	}
}

func TestSeriesLastNonEmpty(t *testing.T) {
	s := NewSeries("x", 8)
	s.Append(Window{Summary: metrics.Summary{N: 5, Mean: 42}})
	s.Append(Window{}) // quiet tick
	s.Append(Window{})
	w, ok := s.LastNonEmpty()
	if !ok || w.Mean != 42 {
		t.Fatalf("LastNonEmpty = %+v ok=%v", w, ok)
	}
}

func TestWindowRateAndStats(t *testing.T) {
	w := Window{
		Start:   0,
		End:     sim.Time(2 * time.Second),
		Summary: metrics.Summary{N: 4, Mean: 5, Min: 1, Max: 9, P50: 4, P95: 8, P99: 9},
	}
	// Sum = Mean*N = 20 over 2s -> 10/s.
	if got := w.Rate(); got != 10 {
		t.Fatalf("rate = %v", got)
	}
	cases := map[Stat]float64{
		StatMean: 5, StatMin: 1, StatMax: 9,
		StatP50: 4, StatP95: 8, StatP99: 9,
		StatCount: 4, StatRate: 10,
	}
	for st, want := range cases {
		if got := st.Of(w); got != want {
			t.Fatalf("%v = %v, want %v", st, got, want)
		}
	}
}
