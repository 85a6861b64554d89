package monitor

import (
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/pubsub"
	"repro/internal/sim"
)

// TestWirePubSub pins the bus wiring from the monitor's side: a channel
// handed the plane's bus (ChannelConfig.Bus) turns outbox overflows into
// KindDrop records and watermark crossings into KindSubLag records that
// the plane's timelines see, timestamped with the channel's clock.
func TestWirePubSub(t *testing.T) {
	clk := sim.NewKernel(1)
	bus := events.NewBus(sim.Wall)
	drops := events.NewTimeline(bus, events.KindDrop)
	lags := events.NewTimeline(bus, events.KindSubLag)
	ch := pubsub.New(pubsub.ChannelConfig{Name: "mon", Clock: clk, Bus: bus})

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
	if want := sim.Time(5) * time.Millisecond; r.At != want {
		t.Errorf("drop at %v, want the channel clock's %v", r.At, want)
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
