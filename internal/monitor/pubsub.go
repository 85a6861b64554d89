package monitor

import (
	"strconv"
	"sync"

	"repro/internal/events"
	"repro/internal/pubsub"
)

// WirePubSub connects a channel's drop and lag hooks to the monitoring
// bus: every event an outbox settles as overflow, coalesced, sampled or
// closed becomes one KindDrop record, so the records reconcile with the
// snapshot's Dropped, and every lag-watermark crossing a KindSubLag
// record, so dissemination losses line up on the same timeline as sheds,
// breaker trips and SLO burns. Works for simulation and wall buses alike (the
// channel stamps its own clock into the records).
func WirePubSub(bus *events.Bus, ch *pubsub.Channel) {
	source := "pubsub/" + ch.Name()
	ch.SetDropHook(func(d pubsub.DropInfo) {
		bus.PublishAt(d.At, events.KindDrop, source,
			events.F("sub", d.Sub),
			events.F("topic", d.Topic),
			events.F("seq", strconv.FormatUint(d.Seq, 10)),
			events.F("reason", d.Reason),
			events.F("policy", d.Policy.String()),
			events.F("depth", strconv.Itoa(d.Depth)))
	})
	ch.SetLagHook(func(l pubsub.LagInfo) {
		state := "cleared"
		if l.Lagging {
			state = "lagging"
		}
		bus.PublishAt(l.At, events.KindSubLag, source,
			events.F("sub", l.Sub),
			events.F("state", state),
			events.F("depth", strconv.Itoa(l.Depth)),
			events.F("cap", strconv.Itoa(l.Cap)))
	})
}

// DegradePubSubOnBurn drives the channel's adaptive downgrade from the
// monitoring plane: while any alert rule or SLO burn pair is in the
// firing state, BE subscribers run degraded (coalesced/sampled
// delivery); when the last firing source resolves, full fan-out
// resumes. EF subscribers keep complete streams throughout. Cancel the
// returned subscription to detach.
func DegradePubSubOnBurn(bus *events.Bus, ch *pubsub.Channel) *events.BusSub {
	var mu sync.Mutex
	firing := make(map[string]bool)
	return bus.Subscribe(func(r events.Record) {
		state := ""
		for _, f := range r.Fields {
			if f.K == "state" {
				state = f.V
				break
			}
		}
		key := string(r.Kind) + "/" + r.Source
		mu.Lock()
		switch state {
		case "firing":
			firing[key] = true
		case "resolved":
			delete(firing, key)
		default:
			mu.Unlock()
			return
		}
		degraded := len(firing) > 0
		mu.Unlock()
		ch.SetDegraded(degraded)
	}, events.KindAlert, events.KindSLOBurn)
}
