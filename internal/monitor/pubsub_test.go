package monitor

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/pubsub"
	"repro/internal/sim"
)

// TestWirePubSub pins the bus wiring: outbox overflows become KindDrop
// records and watermark crossings KindSubLag records, timestamped with
// the channel's clock.
func TestWirePubSub(t *testing.T) {
	clk := sim.NewKernel(1)
	ch := pubsub.New(pubsub.ChannelConfig{Name: "mon", Clock: clk})
	bus := events.NewBus(sim.Wall)
	drops := events.NewTimeline(bus, events.KindDrop)
	lags := events.NewTimeline(bus, events.KindSubLag)
	WirePubSub(bus, ch)

	if _, err := ch.Subscribe(pubsub.SubscriberConfig{Name: "slow", Outbox: 4, Deliver: func(pubsub.Event) {}}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < 6; i++ {
		clk.RunFor(time.Millisecond)
		if err := ch.Publish(pubsub.Event{Topic: "t"}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}

	if drops.Len() != 2 {
		t.Fatalf("drop records = %d, want 2\n%s", drops.Len(), drops.Render())
	}
	r := drops.Records()[0]
	if r.Source != "pubsub/mon" {
		t.Errorf("drop source = %q", r.Source)
	}
	fields := map[string]string{}
	for _, f := range r.Fields {
		fields[f.K] = f.V
	}
	if fields["sub"] != "slow" || fields["reason"] != "overflow" || fields["policy"] != "drop-oldest" {
		t.Errorf("drop fields = %v", fields)
	}
	if lags.Len() != 1 {
		t.Errorf("sub_lag records = %d, want 1 (entered)", lags.Len())
	}
	ch.PumpAll()
	if lags.Len() != 2 {
		t.Errorf("sub_lag records after drain = %d, want 2 (cleared)", lags.Len())
	}
}

// TestDegradePubSubOnBurn pins the adaptive hook: any firing alert or
// SLO burn degrades BE subscribers; when the last source resolves, full
// fan-out resumes.
func TestDegradePubSubOnBurn(t *testing.T) {
	ch := pubsub.New(pubsub.ChannelConfig{Name: "adapt"})
	if _, err := ch.Subscribe(pubsub.SubscriberConfig{Name: "be", Priority: 0, Deliver: func(pubsub.Event) {}}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	bus := events.NewBus(sim.Wall)
	sub := DegradePubSubOnBurn(bus, ch)
	defer sub.Cancel()

	bus.Publish(events.KindAlert, "rule/ef_hot", events.F("state", "firing"))
	if !ch.Degraded() {
		t.Fatal("firing alert must degrade the channel")
	}
	bus.Publish(events.KindSLOBurn, "slo/echo", events.F("state", "firing"))
	bus.Publish(events.KindAlert, "rule/ef_hot", events.F("state", "resolved"))
	if !ch.Degraded() {
		t.Fatal("one source still firing: channel must stay degraded")
	}
	bus.Publish(events.KindSLOBurn, "slo/echo", events.F("state", "resolved"))
	if ch.Degraded() {
		t.Fatal("all sources resolved: channel must recover")
	}
	// Records without a state field (other kinds' shapes) are ignored.
	bus.Publish(events.KindAlert, "rule/odd")
	if ch.Degraded() {
		t.Fatal("stateless record must not flip degradation")
	}
}
