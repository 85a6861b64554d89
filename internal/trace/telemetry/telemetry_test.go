package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestLabelOrderCanonicalized(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("orb.requests", L("op", "echo"), L("prio", "10"))
	b := r.Counter("orb.requests", L("prio", "10"), L("op", "echo"))
	if a != b {
		t.Fatal("label order created two instruments for the same series")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("value = %v, want 2", a.Value())
	}
	if c := r.Counter("orb.requests", L("op", "echo"), L("prio", "20")); c == a {
		t.Fatal("different label value mapped to the same instrument")
	}
}

func TestKeyOf(t *testing.T) {
	if got := keyOf("m", nil); got != "m" {
		t.Fatalf("unlabeled key = %q", got)
	}
	got := keyOf("m", []Label{{K: "z", V: "1"}, {K: "a", V: "2"}})
	if got != "m{a=2,z=1}" {
		t.Fatalf("key = %q, want m{a=2,z=1}", got)
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c").Add(-1)
}

func TestGaugeAndHistogram(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("quo.cond", L("cond", "fps"))
	g.Set(27.5)
	if g.Value() != 27.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("orb.rtt_ms", L("op", "echo"))
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.N != 4 {
		t.Fatalf("count = %d", s.N)
	}
	if s.Mean != 2.5 || s.P50 != 2.5 {
		t.Fatalf("summary mean/P50 = %v/%v, want 2.5/2.5", s.Mean, s.P50)
	}
}

func TestRenderSortedAndStable(t *testing.T) {
	r := NewRegistry()
	// Insert out of lexical order; rendering must sort.
	r.Counter("z.last").Inc()
	r.Counter("a.first").Add(3)
	r.Gauge("mid.gauge").Set(7)
	r.Histogram("h.lat", L("op", "x")).Observe(1.5)

	out := r.Render()
	if out != r.Render() {
		t.Fatal("Render not stable across calls")
	}
	if !strings.Contains(out, "Counters") || !strings.Contains(out, "Gauges") ||
		!strings.Contains(out, "Histograms") {
		t.Fatalf("missing sections:\n%s", out)
	}
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Fatalf("counters not sorted by key:\n%s", out)
	}
	if !strings.Contains(out, "h.lat{op=x}") {
		t.Fatalf("histogram key missing labels:\n%s", out)
	}
}

func TestRenderEmptyRegistry(t *testing.T) {
	if out := NewRegistry().Render(); out != "" {
		t.Fatalf("empty registry rendered %q", out)
	}
}

func TestGaugeAdd(t *testing.T) {
	g := NewRegistry().Gauge("depth")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge after Add(3), Add(-1) = %v, want 2", g.Value())
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		labels []Label
	}{
		{"plain", nil},
		{"orb.rtt_ms", []Label{L("prio", "100"), L("op", "echo")}},
		{"pool.shed", []Label{L("reason", "deadline"), L("lane", "0")}},
	}
	for _, c := range cases {
		key := keyOf(c.name, c.labels)
		name, labels := ParseKey(key)
		if name != c.name {
			t.Fatalf("ParseKey(%q) name = %q", key, name)
		}
		// Re-keying the parsed form must reproduce the canonical key:
		// canonical label ordering survives the sampling round trip.
		if got := keyOf(name, labels); got != key {
			t.Fatalf("round trip %q -> %q", key, got)
		}
		for i := 1; i < len(labels); i++ {
			if labels[i-1].K >= labels[i].K {
				t.Fatalf("parsed labels not canonically ordered: %v", labels)
			}
		}
	}
}

func TestHistogramBoundedMemory(t *testing.T) {
	h := NewRegistry().Histogram("big")
	n := 3 * DefaultReservoirCap
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if got := len(h.cum.vs); got != DefaultReservoirCap {
		t.Fatalf("retained %d samples, want cap %d", got, DefaultReservoirCap)
	}
	s := h.Summary()
	if s.N != n {
		t.Fatalf("N = %d, want exact %d", s.N, n)
	}
	if s.Min != 0 || s.Max != float64(n-1) {
		t.Fatalf("min/max = %v/%v, want exact 0/%d", s.Min, s.Max, n-1)
	}
	wantMean := float64(n-1) / 2
	if s.Mean != wantMean {
		t.Fatalf("mean = %v, want exact %v", s.Mean, wantMean)
	}
	// Percentiles are sampled but must stay plausible on a uniform ramp.
	if s.P50 < 0.3*float64(n) || s.P50 > 0.7*float64(n) {
		t.Fatalf("sampled P50 = %v implausible for uniform ramp over [0,%d)", s.P50, n)
	}
}

func TestHistogramSmallRunsExact(t *testing.T) {
	// Below the reservoir cap, Summary must equal the exact computation
	// over every observation — the pre-reservoir behaviour.
	h := &Histogram{}
	vs := []float64{5, 1, 4, 2, 3, 9, 7}
	for _, v := range vs {
		h.Observe(v)
	}
	want := metrics.Summarize(vs)
	if got := h.Summary(); got != want {
		t.Fatalf("small-run summary %+v != exact %+v", got, want)
	}
}

func TestHistogramDeterministicReservoir(t *testing.T) {
	sample := func() []float64 {
		h := &Histogram{}
		for i := 0; i < 2*DefaultReservoirCap; i++ {
			h.Observe(float64(i))
		}
		return h.cum.vs
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reservoir diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHistogramTakeWindow(t *testing.T) {
	h := &Histogram{}
	h.Observe(1)
	h.Observe(3)
	w, _, _ := h.TakeWindowEx()
	if w.N != 2 || w.Mean != 2 {
		t.Fatalf("window 1 = %+v, want N=2 mean=2", w)
	}
	h.Observe(10)
	w, _, _ = h.TakeWindowEx()
	if w.N != 1 || w.Mean != 10 {
		t.Fatalf("window 2 = %+v, want N=1 mean=10", w)
	}
	if w, _, _ = h.TakeWindowEx(); w.N != 0 {
		t.Fatalf("empty window = %+v, want N=0", w)
	}
	// Cumulative view is unaffected by window draining.
	if s := h.Summary(); s.N != 3 {
		t.Fatalf("cumulative N = %d, want 3", s.N)
	}
}

// TestRegistryConcurrentUse exercises concurrent Inc/Observe/Set/Render
// under -race: the exposition endpoint reads while probes write.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("reqs", L("op", "echo")).Inc()
				r.Gauge("depth", L("lane", "0")).Add(1)
				r.Histogram("rtt", L("prio", fmt.Sprint(g%2))).Observe(float64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = r.Render()
			r.Histogram("rtt", L("prio", "0")).TakeWindowEx()
		}
	}()
	wg.Wait()
	if got := r.Counter("reqs", L("op", "echo")).Value(); got != 2000 {
		t.Fatalf("counter = %v, want 2000", got)
	}
}

// TestHistogramExemplars pins exemplar semantics: max-value wins,
// first-seen wins exact ties, window exemplars drain independently of
// the cumulative one, and untagged observations never produce one.
func TestHistogramExemplars(t *testing.T) {
	h := &Histogram{}
	if _, ok := h.Exemplar(); ok {
		t.Fatal("empty histogram has an exemplar")
	}
	h.Observe(99) // untagged: affects the distribution, never the exemplar
	h.ObserveEx(10, Exemplar{TraceID: 1, SpanID: 1, At: time.Millisecond})
	h.ObserveEx(42, Exemplar{TraceID: 2, SpanID: 2, At: 2 * time.Millisecond})
	h.ObserveEx(42, Exemplar{TraceID: 3, SpanID: 3, At: 3 * time.Millisecond}) // tie: first wins
	h.ObserveEx(17, Exemplar{TraceID: 4, SpanID: 4, At: 4 * time.Millisecond})

	ex, ok := h.Exemplar()
	if !ok || ex.TraceID != 2 || ex.SpanID != 2 || ex.Value != 42 {
		t.Fatalf("cumulative exemplar = %+v ok=%v, want trace 2 value 42", ex, ok)
	}

	sum, wex, ok := h.TakeWindowEx()
	if sum.N != 5 {
		t.Fatalf("window N = %d, want 5", sum.N)
	}
	if !ok || wex.TraceID != 2 || wex.Value != 42 {
		t.Fatalf("window exemplar = %+v ok=%v, want trace 2 value 42", wex, ok)
	}

	// New window: its exemplar is independent; cumulative keeps the max.
	h.ObserveEx(5, Exemplar{TraceID: 9, SpanID: 9, At: 5 * time.Millisecond})
	if _, wex, ok = h.TakeWindowEx(); !ok || wex.TraceID != 9 || wex.Value != 5 {
		t.Fatalf("second window exemplar = %+v ok=%v, want trace 9 value 5", wex, ok)
	}
	if ex, ok = h.Exemplar(); !ok || ex.TraceID != 2 {
		t.Fatalf("cumulative exemplar after drain = %+v ok=%v, want trace 2", ex, ok)
	}

	// An invalid exemplar (no span context) is ignored even at a new max.
	h.ObserveEx(1000, Exemplar{})
	if ex, _ = h.Exemplar(); ex.TraceID != 2 {
		t.Fatalf("invalid exemplar replaced the real one: %+v", ex)
	}
	if _, _, ok = h.TakeWindowEx(); ok {
		t.Fatal("window exemplar set by an invalid observation")
	}
}
