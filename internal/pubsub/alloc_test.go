//go:build !race

package pubsub

import (
	"fmt"
	"testing"
)

// Publishing one event to eight subscribers and pumping it to each — the
// delivered path, the only one the pubsub_fanout workload takes — costs
// 26 allocations once every subscriber's outcome counter is resolved:
// per subscriber, two topic splits in MatchTopic and one outbox array;
// per publish, the match list and PumpAll's subscriber copy. Settling a
// delivery adds none. (The race detector allocates on its own account,
// so the pin exists only in an ordinary build.)
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
	if allocs != 26 {
		t.Fatalf("%v allocations per publish + PumpAll to 8 subscribers, want 26", allocs)
	}
}
