//go:build !race

package pubsub

import (
	"fmt"
	"testing"
)

// Publishing one event to eight subscribers and pumping it to each — the
// delivered path, the only one the pubsub_fanout workload takes — costs
// 2 allocations once every subscriber's outcome counter is resolved and
// its outbox has grown: the publish's match list and PumpAll's subscriber
// copy. Per subscriber nothing: MatchTopic walks the topic in place, the
// outbox ring keeps its array, and settling a delivery adds none. (The
// race detector allocates on its own account, so the pins exist only in
// an ordinary build.)
func TestAllocsDeliveredPath(t *testing.T) {
	ch := New(ChannelConfig{Name: "alloc"})
	for i := 0; i < 8; i++ {
		mustSub(t, ch, SubscriberConfig{
			Name: fmt.Sprint("s", i), Topic: "camera/**", Priority: EFFloor, Outbox: 256, Policy: DropNewest,
			Deliver: func(Event) {},
		})
	}
	ev := Event{Topic: "camera/front", Key: "cam0", Priority: EFFloor, Payload: make([]byte, 64)}
	allocs := testing.AllocsPerRun(500, func() {
		if err := ch.Publish(ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if n := ch.PumpAll(); n != 8 {
			t.Fatalf("PumpAll delivered %d events, want 8", n)
		}
	})
	if allocs != 2 {
		t.Fatalf("%v allocations per publish + PumpAll to 8 subscribers, want 2", allocs)
	}
}

// MatchTopic, "**" backtracking included, allocates nothing.
func TestAllocsMatchTopic(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if !MatchTopic("camera/**/raw", "camera/front/left/raw") {
			t.Fatal("no match")
		}
	})
	if allocs != 0 {
		t.Errorf("MatchTopic allocated %v times, want 0", allocs)
	}
}
