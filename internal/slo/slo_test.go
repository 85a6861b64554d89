package slo

import (
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/quo"
	"repro/internal/sim"
)

// feed schedules count observations per second with the given bad
// ratio, spread evenly, between from and to.
func feed(k *sim.Kernel, tr *Tracker, from, to time.Duration, perSec int, badEvery int) {
	period := time.Second / time.Duration(perSec)
	i := 0
	for at := from; at < to; at += period {
		i++
		bad := badEvery > 0 && i%badEvery == 0
		k.At(sim.Time(at), func() { tr.Observe(!bad) })
	}
}

func TestBurnRateFiresOnBudgetBurnAndResolves(t *testing.T) {
	k := sim.NewKernel(1)
	bus := events.NewBus(k)
	tl := events.NewTimeline(bus, events.KindSLOBurn)
	// 99% availability goal, scenario-scaled windows: fast 500ms/6s
	// burn 14.4, slow 6s/12s burn 1.
	tr := NewTracker(k, Objective{Name: "avail", Goal: 0.99, Pairs: ScaledPairs(12 * time.Second)}, bus)
	tr.Start(100 * time.Millisecond)

	// Phase 1 (0-4s): clean traffic. Phase 2 (4-8s): 50% bad — burn 50,
	// far over both thresholds. Phase 3 (8-20s): clean again.
	feed(k, tr, 0, 4*time.Second, 100, 0)
	feed(k, tr, 4*time.Second, 8*time.Second, 100, 2)
	feed(k, tr, 8*time.Second, 20*time.Second, 100, 0)
	k.RunUntil(sim.Time(21 * time.Second))
	tr.Stop()

	fastAt, fastFired := tr.FiredAt(0)
	if !fastFired {
		t.Fatalf("fast pair never fired:\n%s", tr.Render())
	}
	// The fast pair needs burn>=14.4 on BOTH 500ms and 6s windows: the
	// short window saturates almost immediately, the long one dilutes
	// the burst over 6s of history, so firing lands shortly after the
	// long-window burn crosses 14.4 — well before the burst ends.
	if fastAt <= sim.Time(4*time.Second) || fastAt >= sim.Time(8*time.Second) {
		t.Fatalf("fast pair fired at %v, want during the burst", time.Duration(fastAt))
	}
	if firing(tr) {
		t.Fatalf("still firing long after recovery:\n%s", tr.Render())
	}

	var firing, resolved int
	for _, r := range tl.Records() {
		if r.Kind != events.KindSLOBurn {
			t.Fatalf("unexpected kind %s on filtered timeline", r.Kind)
		}
		for _, f := range r.Fields {
			if f.K == "state" {
				switch f.V {
				case "firing":
					firing++
				case "resolved":
					resolved++
				}
			}
		}
	}
	if firing == 0 || firing != resolved {
		t.Fatalf("transition records unbalanced: %d firing, %d resolved\n%s",
			firing, resolved, events.NewTimeline(bus).Render())
	}
}

// TestTrackerRestartOnKernel pins that Stop and Start mean the same on
// a kernel as on the wall clock: a stopped tracker leaves no evaluation
// behind and misses transitions, a restarted one catches them again.
func TestTrackerRestartOnKernel(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracker(k, Objective{
		Name: "avail", Goal: 0.99,
		Pairs: []WindowPair{{Short: 100 * time.Millisecond, Long: 200 * time.Millisecond, Burn: 1}},
	}, nil)
	feed(k, tr, 0, 2*time.Second, 100, 2) // 50% bad throughout

	tr.Start(50 * time.Millisecond)
	tr.Stop()
	if k.Pending() != 200 { // only the feed's observations remain
		t.Fatalf("%d events pending after stop, want the 200 observations", k.Pending())
	}
	k.RunFor(time.Second)
	if firing(tr) {
		t.Fatal("a stopped tracker evaluated")
	}
	tr.Start(50 * time.Millisecond)
	k.RunFor(500 * time.Millisecond)
	if !firing(tr) {
		t.Fatal("a restarted tracker did not evaluate")
	}
}

// TestBurnRateIgnoresShortSpike pins the multi-window property: a
// transient spike saturates the short window but not the long one, so
// no pair fires — the false-alarm resistance single-window alerting
// lacks.
func TestBurnRateIgnoresShortSpike(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracker(k, Objective{Name: "avail", Goal: 0.99, Pairs: ScaledPairs(12 * time.Second)}, nil)
	tr.Start(100 * time.Millisecond)

	// 11.6s of clean traffic with one 200ms fully-bad spike at 6s:
	// the 500ms window sees burn 100 but the 6s window only ~3.3.
	feed(k, tr, 0, 6*time.Second, 100, 0)
	feed(k, tr, 6*time.Second, 6200*time.Millisecond, 100, 1)
	feed(k, tr, 6200*time.Millisecond, 12*time.Second, 100, 0)
	k.RunUntil(sim.Time(13 * time.Second))
	tr.Stop()

	// The fast (paging) pair must not fire: its long window dilutes the
	// spike below the 14.4 threshold. The slow (ticket) pair is allowed
	// to — a 200ms full-bad spike does spend ~1.7% of a 1% budget's
	// worth of events, which is exactly what a slow-burn ticket is for.
	if _, fired := tr.FiredAt(0); fired {
		t.Fatalf("fast pair fired on a transient spike:\n%s", tr.Render())
	}
}

func TestCanonicalPairsOnVirtualDays(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracker(k, Objective{Name: "avail", Goal: 0.999}, nil)
	tr.Start(time.Minute)

	// One observation per virtual second. 2% bad from hour 2 gives burn
	// 20 > 14.4 on the fast pair; virtual days cost nothing to simulate.
	feed(k, tr, 0, 2*time.Hour, 1, 0)
	feed(k, tr, 2*time.Hour, 4*time.Hour, 1, 50)
	k.RunUntil(sim.Time(4 * time.Hour))
	tr.Stop()

	fastAt, fired := tr.FiredAt(0)
	if !fired {
		t.Fatalf("canonical fast pair never fired:\n%s", tr.Render())
	}
	if fastAt <= sim.Time(2*time.Hour) {
		t.Fatalf("fired at %v, before the bad phase began", time.Duration(fastAt))
	}
}

func TestLatencyObjectiveAndBurnCond(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracker(k, Objective{
		Name: "rtt", Goal: 0.95, LatencyBound: 50 * time.Millisecond,
		Pairs: ScaledPairs(12 * time.Second),
	}, nil)
	cond := tr.Cond("rtt_burn")
	if cond.Name() != "rtt_burn" {
		t.Fatalf("cond name = %q", cond.Name())
	}
	var _ quo.SysCond = cond

	for at := time.Duration(0); at < 2*time.Second; at += 10 * time.Millisecond {
		at := at
		k.At(sim.Time(at), func() {
			d := 10 * time.Millisecond
			if at >= time.Second {
				d = 200 * time.Millisecond // every call over the bound
			}
			tr.ObserveLatency(d)
		})
	}
	var before, after float64
	k.At(sim.Time(900*time.Millisecond), func() { before = cond.Value() })
	k.At(sim.Time(1900*time.Millisecond), func() { after = cond.Value() })
	k.RunUntil(sim.Time(2 * time.Second))

	if before != 0 {
		t.Fatalf("burn before the slowdown = %v, want 0", before)
	}
	// Second half: 100% of calls breach the bound against a 5% budget;
	// the worst pairwise burn must reflect a serious breach.
	if after < 2 {
		t.Fatalf("burn during the slowdown = %v, want >= 2", after)
	}
	if got := tr.Render(); !strings.Contains(got, "slo rtt") {
		t.Fatalf("render missing header:\n%s", got)
	}
}

func TestTrackerRingBoundedAndDeterministic(t *testing.T) {
	run := func() string {
		k := sim.NewKernel(9)
		tr := NewTracker(k, Objective{Name: "a", Goal: 0.99, Pairs: ScaledPairs(10 * time.Second)}, nil)
		tr.Start(0)
		feed(k, tr, 0, 30*time.Second, 200, 7)
		k.RunUntil(sim.Time(30 * time.Second))
		return tr.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed renders differ:\n%s\n---\n%s", a, b)
	}
	// The ring is sized from the windows alone (longest/bucket + 2) and
	// never grows: 30s at 200/s recycles buckets instead of allocating.
	k := sim.NewKernel(1)
	tr := NewTracker(k, Objective{Name: "a", Goal: 0.99, Pairs: ScaledPairs(10 * time.Second)}, nil)
	before := len(tr.ring)
	tr.Start(0)
	feed(k, tr, 0, 30*time.Second, 200, 7)
	k.RunUntil(sim.Time(30 * time.Second))
	if len(tr.ring) != before || before > 200 {
		t.Fatalf("ring grew or oversized: %d -> %d buckets", before, len(tr.ring))
	}
}

// firing reports whether any pair of t is currently in the firing state.
func firing(t *Tracker) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ps := range t.pairs {
		if ps.firing {
			return true
		}
	}
	return false
}
