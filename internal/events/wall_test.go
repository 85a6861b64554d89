package events

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// fixedClock ticks like sim.Wall but always reads the same time.
type fixedClock struct {
	*sim.WallClock
	t sim.Time
}

func (c fixedClock) Now() sim.Time { return c.t }

// TestWallBusStampsRecords pins the bus on a wall clock: records carry
// both the clock's reading (At) and a real wall timestamp (Wall) — also
// when published with an explicit At — and rendering uses the wall
// timestamp.
func TestWallBusStampsRecords(t *testing.T) {
	elapsed := sim.Time(3 * time.Second)
	b := NewBus(fixedClock{sim.Wall, elapsed})
	tl := NewTimeline(b)

	before := time.Now()
	b.Publish(KindAlert, "rule/hot", F("state", "firing"))
	b.PublishAt(time.Second, KindAlert, "rule/hot", F("state", "resolved"))
	after := time.Now()

	recs := tl.Records()
	if len(recs) != 2 {
		t.Fatalf("timeline has %d records, want 2", len(recs))
	}
	if recs[0].At != elapsed || recs[1].At != time.Second {
		t.Fatalf("record At = %v and %v, want the clock's %v and the explicit 1s", recs[0].At, recs[1].At, elapsed)
	}
	for _, r := range recs {
		if r.Wall.Before(before) || r.Wall.After(after) {
			t.Fatalf("record Wall = %v, want within [%v, %v]", r.Wall, before, after)
		}
		want := r.Wall.Format("15:04:05.000")
		if s := r.String(); !strings.Contains(s, want) {
			t.Fatalf("wall record renders %q, want wall timestamp %q", s, want)
		}
	}
}

// TestWallBusDefaultClock pins the bus on the process clock: At is the
// time since process start, the domain wire spans are stamped in.
func TestWallBusDefaultClock(t *testing.T) {
	b := NewBus(sim.Wall)
	var got Record
	b.Subscribe(func(r Record) { got = r })
	before := sim.Wall.Now()
	time.Sleep(5 * time.Millisecond)
	b.Publish(KindSample, "sampler")
	if got.At < before+5*time.Millisecond || got.At > sim.Wall.Now() {
		t.Fatalf("At = %v, want the process clock a few ms after %v", got.At, before)
	}
	if got.Wall.IsZero() {
		t.Fatal("wall bus record missing Wall timestamp")
	}
}

// TestSimRecordRenderUnchanged pins that sim-bus records (zero Wall)
// keep the virtual-time rendering, so seeded dashboards stay
// byte-identical.
func TestSimRecordRenderUnchanged(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBus(k)
	var got Record
	b.Subscribe(func(r Record) { got = r })
	k.At(1500*time.Millisecond, func() { b.Publish(KindShed, "pool", F("lane", "0")) })
	k.Run()
	if !got.Wall.IsZero() {
		t.Fatal("sim bus record unexpectedly carries a wall timestamp")
	}
	if s := got.String(); !strings.HasPrefix(s, "        1.5s") {
		t.Fatalf("sim record rendering changed: %q", s)
	}
}
