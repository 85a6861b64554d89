package sampling

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// genWorkload drives a synthetic invocation stream through a tracer
// whose only expensive sink is the sampler under test: steady 5ms
// "invoke work" roots every 10ms, a 50ms outlier every 16th, an
// error-attributed trace every 25th, and a deadline_expired overload
// marker (ending AFTER its root, the late-span shape) every 40th. It
// returns the sampler, its downstream collector and the IDs of the
// error-attributed traces.
func genWorkload(seed int64, n int, cfg Config) (*Sampler, *trace.Collector, []trace.TraceID) {
	k := sim.NewKernel(seed)
	tr := trace.NewTracer(k)
	col := trace.NewCollector()
	sp := New(k, cfg, col)
	tr.AddSink(sp)

	var errs []trace.TraceID
	for i := 0; i < n; i++ {
		i := i
		k.At(sim.Time(i)*sim.Time(10*time.Millisecond), func() {
			root := tr.StartRoot("invoke work", trace.LayerORB)
			root.SetAttr(trace.Int("priority", int64(i%2)*100))
			dur := 5 * time.Millisecond
			if i%16 == 15 {
				dur = 50 * time.Millisecond
			}
			if i%25 == 24 {
				root.SetAttr(trace.String("error", "boom"))
				errs = append(errs, root.TraceID)
			}
			var late *trace.Span
			if i%40 == 39 {
				late = tr.StartChild(root.Context(), "deadline_expired", trace.LayerOverload)
			}
			k.After(sim.Time(dur), func() {
				root.Finish()
				if late != nil {
					k.After(time.Millisecond, late.Finish)
				}
			})
		})
	}
	k.RunUntil(sim.Time(n+20) * sim.Time(10*time.Millisecond))
	tr.FlushOpen()
	sp.FlushOpen()
	return sp, col, errs
}

func TestSamplerAlwaysKeepsErrorTraces(t *testing.T) {
	sp, col, errs := genWorkload(1, 200, Config{})
	if len(errs) != 8 {
		t.Fatalf("workload made %d error traces, want 8", len(errs))
	}
	for _, id := range errs {
		if v := sp.Verdict(id); v != VerdictKeepError {
			t.Fatalf("error trace %d verdict %v, want keep_error", id, v)
		}
	}
	// Every kept-for-error trace must actually contain an error marker.
	for _, id := range col.TraceIDs() {
		if v := sp.Verdict(id); v == VerdictKeepError {
			found := false
			for _, s := range col.Trace(id) {
				if DefaultAlwaysKeep(s) {
					found = true
				}
			}
			if !found {
				t.Fatalf("trace %d kept as error but has no error-class span:\n%s", id, col.RenderTree(id))
			}
		}
	}
	// Spans of dropped traces never reached the downstream collector.
	for _, id := range col.TraceIDs() {
		if !sp.Verdict(id).Keep() {
			t.Fatalf("dropped trace %d present in downstream collector", id)
		}
	}
}

func TestSamplerKeepsTailOutliers(t *testing.T) {
	sp, col, _ := genWorkload(1, 200, Config{})
	if sp.Stats().KeepTail == 0 {
		t.Fatal("no tail outliers kept")
	}
	// Tail-kept traces are the slow ones: their root duration is well
	// above the steady 5ms.
	for _, id := range col.TraceIDs() {
		if sp.Verdict(id) != VerdictKeepTail {
			continue
		}
		root := col.Root(id)
		if root.Duration() <= 10*time.Millisecond {
			t.Fatalf("trace %d kept as tail outlier at %v", id, root.Duration())
		}
	}
}

// TestSamplerAdaptiveBudget floods the sampler far over its head budget
// and checks the AIMD controller backs the probability off until the
// kept-head rate lands near the target.
func TestSamplerAdaptiveBudget(t *testing.T) {
	const n = 2000 // 100 roots/sec for 20s of virtual time
	sp, _, _ := genWorkload(1, n, Config{
		AlwaysKeep: func(*trace.Span) bool { return false }, // isolate the head path
		TailMin:    1 << 30,                                 // tail detector off
	})
	st := sp.Stats()
	if st.KeepError != 0 || st.KeepTail != 0 {
		t.Fatalf("non-head keeps leaked into the budget test: %+v", st)
	}
	// 2000 traces over 20s against a 10/s budget per band (two bands
	// alternate): without adaptation we'd keep all 2000; the controller
	// must land the same order of magnitude as budget * time.
	if st.KeepHead >= n/2 {
		t.Fatalf("AIMD did not back off: kept %d of %d", st.KeepHead, n)
	}
	if st.KeepHead == 0 {
		t.Fatal("AIMD collapsed to zero")
	}
	for _, band := range []string{"low", "high"} {
		if p := headProb(sp, band); p >= 1 {
			t.Fatalf("band %s probability never adapted: %v", band, p)
		}
	}
}

// TestSamplerResurrection pins the late always-keep path: a trace
// dropped at root end is flipped to kept when an error-class span of
// the same trace ends afterwards, so the marker is never lost.
func TestSamplerResurrection(t *testing.T) {
	k := sim.NewKernel(1)
	tr := trace.NewTracer(k)
	col := trace.NewCollector()
	sp := New(k, Config{}, col)
	tr.AddSink(sp)

	var root, late *trace.Span
	k.At(0, func() {
		root = tr.StartRoot("invoke work", trace.LayerORB)
		late = tr.StartChild(root.Context(), "deadline_expired", trace.LayerOverload)
	})
	k.At(sim.Time(5*time.Millisecond), func() { root.Finish() })
	k.RunUntil(sim.Time(6 * time.Millisecond))
	if v := sp.Verdict(root.TraceID); v != VerdictDrop {
		t.Fatalf("root-end verdict = %v, want drop", v)
	}
	k.At(sim.Time(7*time.Millisecond), func() { late.Finish() })
	k.RunUntil(sim.Time(8 * time.Millisecond))

	if v := sp.Verdict(root.TraceID); v != VerdictKeepError {
		t.Fatalf("post-late verdict = %v, want keep_error", v)
	}
	st := sp.Stats()
	if st.Resurrected != 1 || st.Kept != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want one resurrection", st)
	}
	// The late span reached the collector; the collector's effective-root
	// fallback keeps the remnant queryable even though the root span was
	// dropped before the verdict flipped.
	if got := col.Root(root.TraceID); got == nil || got.ID != late.ID {
		t.Fatalf("collector remnant root = %v, want late span %d", got, late.ID)
	}
}

// TestSamplerDeterminism is the acceptance gate: two same-seed runs
// keep byte-identical trace sets, verdict by verdict.
func TestSamplerDeterminism(t *testing.T) {
	sp1, _, _ := genWorkload(7, 500, Config{})
	sp2, _, _ := genWorkload(7, 500, Config{})

	ids1, ids2 := keptTraceIDs(sp1), keptTraceIDs(sp2)
	if fmt.Sprint(ids1) != fmt.Sprint(ids2) {
		t.Fatalf("kept trace sets differ across same-seed runs:\n%v\n%v", ids1, ids2)
	}
	for _, id := range ids1 {
		if sp1.Verdict(id) != sp2.Verdict(id) {
			t.Fatalf("trace %d verdict differs: %v vs %v", id, sp1.Verdict(id), sp2.Verdict(id))
		}
	}
	if sp1.Stats() != sp2.Stats() {
		t.Fatalf("stats differ:\n%+v\n%+v", sp1.Stats(), sp2.Stats())
	}
	if s := sp1.Stats(); s.Kept+s.Dropped != s.Traces || s.Traces < 500 {
		t.Fatalf("inconsistent tally: %+v", s)
	}
}

// headProb is a band's current head-sampling probability (initialProb
// if the band has not been seen yet).
func headProb(sp *Sampler, band string) float64 {
	if b, ok := sp.bands[band]; ok {
		return b.prob
	}
	return initialProb
}

// keptTraceIDs returns the IDs of every kept trace, ascending.
func keptTraceIDs(sp *Sampler) []trace.TraceID {
	var out []trace.TraceID
	for id, v := range sp.decided {
		if v.Keep() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
