package pubsub

import (
	"sync"

	"repro/internal/events"
	"repro/internal/quo"
)

// lagCond reads the channel's worst subscriber outbox fill fraction.
type lagCond struct{ ch *Channel }

func (l lagCond) Name() string { return "pubsub." + l.ch.Name() + ".fill" }

func (l lagCond) Value() float64 {
	worst := 0.0
	for _, s := range l.ch.Snapshot().Subscribers {
		if s.Outbox <= 0 {
			continue
		}
		if f := float64(s.Depth) / float64(s.Outbox); f > worst {
			worst = f
		}
	}
	return worst
}

// LagCond exposes the channel's worst outbox fill (0 = all empty,
// 1 = some subscriber full) as a QuO system condition, so contracts
// can key degradation regions off dissemination backlog the same way
// they key off sampled latency series.
func LagCond(ch *Channel) quo.SysCond { return lagCond{ch} }

// BindContract ties the channel's degraded mode to a QuO contract:
// whenever the contract transitions into one of degradedRegions every
// BE subscriber is downgraded to coalescing/sampled delivery, and
// transitioning to any other region restores full fan-out. This is the
// paper's contract-driven adaptation applied to dissemination — the
// contract decides, the channel acts.
func BindContract(c *quo.Contract, ch *Channel, degradedRegions ...string) {
	set := make(map[string]bool, len(degradedRegions))
	for _, r := range degradedRegions {
		set[r] = true
	}
	c.OnTransition(func(from, to string, v quo.Values) {
		ch.SetDegraded(set[to])
	})
}

// DegradePubSubOnBurn drives the channel's adaptive downgrade from the
// monitoring bus: while any alert rule or SLO burn pair is in the firing
// state, BE subscribers run degraded (coalesced/sampled delivery); when
// the last firing source resolves, full fan-out resumes. EF subscribers
// keep complete streams throughout. Cancel the returned subscription to
// detach.
func DegradePubSubOnBurn(bus *events.Bus, ch *Channel) *events.BusSub {
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
