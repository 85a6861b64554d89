package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/quo"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// TestSamplerCounterDeltas pins the counter-to-series translation: each
// tick observes the increase since the previous tick, so StatRate
// yields a per-second rate.
func TestSamplerCounterDeltas(t *testing.T) {
	k := sim.NewKernel(1)
	reg := telemetry.NewRegistry()
	s := NewSampler(k, reg, nil, 100*time.Millisecond)
	c := reg.Counter("req")

	// 5 increments per 100ms window -> rate 50/s.
	var pump func()
	pump = func() {
		c.Inc()
		if k.Now() < sim.Time(time.Second) {
			k.After(20*time.Millisecond, pump)
		}
	}
	k.Soon(pump)
	s.Start()
	k.RunFor(time.Second)

	sr := s.Series("req")
	if sr == nil {
		t.Fatal("no series for counter")
	}
	w, ok := sr.Last()
	if !ok {
		t.Fatal("no windows")
	}
	if w.N != 1 || w.Mean != 5 {
		t.Fatalf("window = %+v, want single delta observation of 5", w.Summary)
	}
	if got := w.Rate(); got != 50 {
		t.Fatalf("rate = %v, want 50/s", got)
	}
}

// TestSamplerRestartOnKernel pins that Stop and Start mean the same on
// a kernel as on the wall clock: a stopped sampler leaves no tick
// behind, and starting it again resumes sampling from that instant.
func TestSamplerRestartOnKernel(t *testing.T) {
	k := sim.NewKernel(1)
	reg := telemetry.NewRegistry()
	reg.Counter("req").Inc()
	s := NewSampler(k, reg, nil, 100*time.Millisecond)

	s.Start()
	s.Start() // already running: no second schedule
	k.RunFor(350 * time.Millisecond)
	s.Stop()
	if s.Ticks() != 3 || k.Pending() != 0 {
		t.Fatalf("after stop: %d ticks, %d pending events; want 3 and 0", s.Ticks(), k.Pending())
	}
	k.RunFor(time.Second)
	if s.Ticks() != 3 {
		t.Fatalf("ticked while stopped: %d", s.Ticks())
	}

	s.Start()
	k.RunFor(250 * time.Millisecond)
	s.Stop()
	if s.Ticks() != 5 {
		t.Fatalf("after restart: %d ticks, want 5", s.Ticks())
	}
	// The first window after the restart starts at the restart, not at
	// the last tick before the stop.
	w, _ := s.Series("req").Last()
	if w.End-w.Start != 100*time.Millisecond {
		t.Fatalf("window after restart spans %v, want one period", w.End-w.Start)
	}
}

// TestSamplerHistogramWindows pins the TakeWindow drain: per-window
// distributions appear under "<key>.window" while the cumulative
// summary keeps every observation.
func TestSamplerHistogramWindows(t *testing.T) {
	k := sim.NewKernel(1)
	reg := telemetry.NewRegistry()
	s := NewSampler(k, reg, nil, 100*time.Millisecond)
	h := reg.Histogram("lat_ms")

	k.At(10*time.Millisecond, func() { h.Observe(10); h.Observe(20) })
	k.At(150*time.Millisecond, func() { h.Observe(100) })
	s.Start()
	k.RunFor(300 * time.Millisecond)

	sr := s.Series("lat_ms.window")
	if sr == nil || len(sr.Windows()) < 2 {
		t.Fatalf("window series missing or short: %v", sr)
	}
	w0, w1 := sr.Windows()[0], sr.Windows()[1]
	if w0.N != 2 || w0.Mean != 15 {
		t.Fatalf("first window = %+v", w0.Summary)
	}
	if w1.N != 1 || w1.Mean != 100 {
		t.Fatalf("second window = %+v", w1.Summary)
	}
	if h.Summary().N != 3 {
		t.Fatalf("cumulative count = %d, want 3 (TakeWindow must not consume it)", h.Summary().N)
	}
}

// TestSampledCondDrivesContract is the closed loop end to end: an
// application histogram is sampled into a series, a SeriesCond exposes
// the window p95 to a QuO contract, and rising measured latency drives
// the contract out of its normal region — no probe ever calls Set.
func TestSampledCondDrivesContract(t *testing.T) {
	k := sim.NewKernel(7)
	reg := telemetry.NewRegistry()
	p := NewPlane(k, reg, 100*time.Millisecond)
	h := reg.Histogram("app.rtt_ms")

	cond := HistogramCond("rtt_p95_ms", p.Sampler, "app.rtt_ms", StatP95)
	cond.Default = 10
	contract := quo.NewContract("latency", 100*time.Millisecond).
		AddCondition(cond).
		AddRegion(quo.Region{Name: "degraded", When: func(v quo.Values) bool { return v["rtt_p95_ms"] > 50 }}).
		AddRegion(quo.Region{Name: "normal"})
	p.WireContract(contract)

	// Healthy traffic for 500ms, then congestion: rtt jumps to ~120ms.
	var gen func()
	gen = func() {
		if k.Now() < sim.Time(500*time.Millisecond) {
			h.Observe(12)
		} else {
			h.Observe(120)
		}
		if k.Now() < sim.Time(time.Second) {
			k.After(25*time.Millisecond, gen)
		}
	}
	k.Soon(gen)
	p.Start()
	contract.Start(k)
	k.RunFor(time.Second)

	if contract.Region() != "degraded" {
		t.Fatalf("region = %q, want degraded (sampled p95 should exceed 50)", contract.Region())
	}
	if contract.Transitions() < 2 {
		// "" -> normal at start, normal -> degraded after the jump.
		t.Fatalf("transitions = %d, want >= 2", contract.Transitions())
	}
	// The transition is on the unified timeline as a KindRegion record.
	regions := p.Timeline.Render(events.KindRegion)
	if !strings.Contains(regions, "from=normal to=degraded") {
		t.Fatalf("timeline missing region transition:\n%s", regions)
	}
}

// TestAlertRules pins the rule lifecycle: fire after For consecutive
// windows over threshold, resolve on the first window back under.
func TestAlertRules(t *testing.T) {
	k := sim.NewKernel(1)
	reg := telemetry.NewRegistry()
	bus := events.NewBus(k)
	tl := events.NewTimeline(bus, events.KindAlert)
	s := NewSampler(k, reg, bus, 100*time.Millisecond)
	s.AddRule(&Rule{
		Name: "high-latency", Series: "lat_ms.window",
		Stat: StatP95, Op: Above, Threshold: 50, For: 2,
	})
	h := reg.Histogram("lat_ms")

	// Windows: ~45 (ok), ~80, ~80 (fires at second), ~80, ~20 (resolves).
	obs := []struct {
		at sim.Time
		v  float64
	}{
		{10 * sim.Time(time.Millisecond), 45},
		{110 * sim.Time(time.Millisecond), 80},
		{210 * sim.Time(time.Millisecond), 80},
		{310 * sim.Time(time.Millisecond), 80},
		{410 * sim.Time(time.Millisecond), 20},
	}
	for _, o := range obs {
		v := o.v
		k.At(o.at, func() { h.Observe(v) })
	}
	s.Start()
	k.RunFor(600 * time.Millisecond)

	recs := tl.Records()
	if len(recs) != 2 {
		t.Fatalf("alert records = %d, want firing+resolved:\n%s", len(recs), tl.Render())
	}
	if recs[0].At != sim.Time(300*time.Millisecond) {
		t.Fatalf("fired at %v, want 300ms (For=2 windows over threshold)", recs[0].At)
	}
	assertField := func(r events.Record, key, want string) {
		t.Helper()
		for _, f := range r.Fields {
			if f.K == key {
				if f.V != want {
					t.Fatalf("%s=%q, want %q", key, f.V, want)
				}
				return
			}
		}
		t.Fatalf("record missing field %q: %v", key, r)
	}
	assertField(recs[0], "state", "firing")
	assertField(recs[1], "state", "resolved")
	assertField(recs[1], "value", "20")
}

// TestSamplerDeterminism: two identically seeded runs produce identical
// series and timelines.
func TestSamplerDeterminism(t *testing.T) {
	run := func() (string, string) {
		k := sim.NewKernel(3)
		reg := telemetry.NewRegistry()
		p := NewPlane(k, reg, 50*time.Millisecond)
		h := reg.Histogram("x")
		c := reg.Counter("n")
		var gen func()
		gen = func() {
			h.Observe(float64(10 + k.Rand().Intn(50)))
			c.Inc()
			if k.Now() < sim.Time(time.Second) {
				k.After(7*time.Millisecond, gen)
			}
		}
		k.Soon(gen)
		p.Sampler.AddRule(&Rule{Name: "busy", Series: "n", Stat: StatRate, Op: Above, Threshold: 100})
		p.Start()
		k.RunFor(time.Second)
		return p.Sampler.Series("x.window").RenderTable("x").Render(), p.Timeline.Render()
	}
	t1, tl1 := run()
	t2, tl2 := run()
	if t1 != t2 {
		t.Fatal("series tables differ across identically seeded runs")
	}
	if tl1 != tl2 {
		t.Fatal("timelines differ across identically seeded runs")
	}
}
