package quo

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestContractFirstMatchWins(t *testing.T) {
	load := NewMeasuredCond("load", 0)
	c := NewContract("c", time.Second).
		AddCondition(load).
		AddRegion(Region{Name: "crisis", When: func(v Values) bool { return v["load"] > 0.9 }}).
		AddRegion(Region{Name: "degraded", When: func(v Values) bool { return v["load"] > 0.5 }}).
		AddRegion(Region{Name: "normal"})

	if got := c.Eval(); got != "normal" {
		t.Fatalf("region = %q, want normal", got)
	}
	load.Set(0.7)
	if got := c.Eval(); got != "degraded" {
		t.Fatalf("region = %q, want degraded", got)
	}
	load.Set(0.95)
	if got := c.Eval(); got != "crisis" {
		t.Fatalf("region = %q, want crisis", got)
	}
	load.Set(0.1)
	if got := c.Eval(); got != "normal" {
		t.Fatalf("region = %q, want normal", got)
	}
	// Four transitions: the initial ""->normal plus three changes.
	if c.Transitions() != 4 {
		t.Fatalf("transitions = %d, want 4", c.Transitions())
	}
}

func TestTransitionCallbacks(t *testing.T) {
	load := NewMeasuredCond("load", 0)
	var log []string
	c := NewContract("c", time.Second).
		AddCondition(load).
		AddRegion(Region{Name: "hot", When: func(v Values) bool { return v["load"] > 0.5 }}).
		AddRegion(Region{Name: "cool"}).
		OnTransition(func(from, to string, v Values) {
			log = append(log, from+"->"+to)
		})
	c.Eval()
	load.Set(1)
	c.Eval()
	c.Eval() // no change: no callback
	if len(log) != 2 || log[0] != "->cool" || log[1] != "cool->hot" {
		t.Fatalf("transition log = %v", log)
	}
}

func TestContractPeriodicEvaluation(t *testing.T) {
	k := sim.NewKernel(1)
	load := NewMeasuredCond("load", 0)
	c := NewContract("c", 100*time.Millisecond).
		AddCondition(load).
		AddRegion(Region{Name: "hot", When: func(v Values) bool { return v["load"] > 0.5 }}).
		AddRegion(Region{Name: "cool"})
	c.Start(k)
	k.After(450*time.Millisecond, func() { load.Set(1) })
	k.RunUntil(time.Second)
	c.Stop()
	if c.Region() != "hot" {
		t.Fatalf("region = %q after load rise", c.Region())
	}
	// Evaluations: immediate + every 100ms through t=1s.
	if c.evals < 10 {
		t.Fatalf("evaluations = %d, want >= 10", c.evals)
	}
	k.RunUntil(2 * time.Second)
	evalsAtStop := c.evals
	k.RunUntil(3 * time.Second)
	if c.evals > evalsAtStop+1 {
		t.Fatalf("contract kept evaluating after Stop: %d -> %d", evalsAtStop, c.evals)
	}
}

func TestEWMACondSmoothes(t *testing.T) {
	c := NewEWMACond("lat", 0.5)
	c.Observe(100)
	if c.Value() != 100 {
		t.Fatalf("first observation = %v, want 100", c.Value())
	}
	c.Observe(0)
	if c.Value() != 50 {
		t.Fatalf("after 0 observation = %v, want 50", c.Value())
	}
	c.Observe(0)
	if c.Value() != 25 {
		t.Fatalf("after second 0 = %v, want 25", c.Value())
	}
}

func TestEWMAInvalidAlphaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha 0 accepted")
		}
	}()
	NewEWMACond("x", 0)
}

func TestFuncCond(t *testing.T) {
	depth := 7
	c := NewFuncCond("depth", func() float64 { return float64(depth) })
	if c.Value() != 7 {
		t.Fatalf("value = %v", c.Value())
	}
	depth = 3
	if c.Value() != 3 {
		t.Fatalf("value = %v after change", c.Value())
	}
}

func TestQosketBundling(t *testing.T) {
	lat := NewMeasuredCond("latency", 0)
	rate := NewEWMACond("rate", 0.3)
	c := NewContract("video", time.Second).AddRegion(Region{Name: "ok"})
	q := NewQosket("video-qos", c, lat, rate)
	if q.Conds["latency"] != lat || q.Conds["rate"] != rate {
		t.Fatal("conditions not bundled")
	}
	// Conditions were added to the contract: snapshot sees them.
	v := c.Snapshot()
	if _, ok := v["latency"]; !ok {
		t.Fatal("contract snapshot missing bundled condition")
	}
}

func TestHistoryRecordsTimeline(t *testing.T) {
	k := sim.NewKernel(1)
	load := NewMeasuredCond("load", 0)
	c := NewContract("c", 100*time.Millisecond).
		AddCondition(load).
		AddRegion(Region{Name: "hot", When: func(v Values) bool { return v["load"] > 0.5 }}).
		AddRegion(Region{Name: "cool"})
	h := NewHistory(k, c)
	c.Start(k)
	k.After(1*time.Second, func() { load.Set(1) })
	k.After(2*time.Second, func() { load.Set(0) })
	k.RunUntil(3 * time.Second)
	c.Stop()
	k.RunUntil(4 * time.Second)

	spans := h.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Region != "cool" || spans[1].Region != "hot" || spans[2].Region != "cool" {
		t.Fatalf("regions = %v", spans)
	}
	now := k.Now()
	if hot := spans[1].DurationAt(now); hot < 900*time.Millisecond || hot > 1100*time.Millisecond {
		t.Fatalf("time in hot = %v, want ~1s", hot)
	}
	if cool := spans[0].DurationAt(now) + spans[2].DurationAt(now); cool < 2500*time.Millisecond {
		t.Fatalf("time in cool = %v", cool)
	}
}
