package main

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/wire"
)

// TestClaimsHaveTeeth feeds the wall-clock runs' Checks reports shaped
// like passing runs, then doctored copies that each break one
// invariant, and requires that exactly the claim naming it fails. No
// sockets: the reports are built by hand.
func TestClaimsHaveTeeth(t *testing.T) {
	soak := func(edit func(*chaos.SoakReport)) []metrics.Check {
		r := chaos.SoakReport{
			Requests: 5000, Outcomes: map[string]int{"ok": 4800, "timeout": 200},
			ServiceGapMs: 52, RedetectMs: 63, EFBaselineP99Ms: 1, EFFaultP99Ms: 1.9,
		}
		edit(&r)
		return r.Checks()
	}
	pub := func(edit func(*experiments.PubSubResult)) []metrics.Check {
		r := experiments.PubSubResult{
			Baseline: metrics.Summary{P99: 300e-6}, Loaded: metrics.Summary{P99: 300e-6},
			Refused: 900, EFDelivered: 420,
			SlowOverflow: 438, Coalesced: 228, Sampled: 3826,
			DropRecords: 4492, LagRecords: 12, Snap: pubsub.ChannelSnapshot{Dropped: 4492},
		}
		edit(&r)
		return r.Checks()
	}
	obs := func(edit func(*obsResult)) []metrics.Check {
		r := obsResult{
			OffEF:        wire.ClassReport{OK: 8800, Latency: metrics.Summary{P99: 1.6}},
			OffBE:        wire.ClassReport{OK: 1900, Latency: metrics.Summary{P99: 250}},
			SamplerTicks: 220, RuntimeSeries: 12, ProfileCaptures: 2, EventsStreamed: 40,
		}
		edit(&r)
		return r.Checks()
	}
	for _, tc := range []struct {
		name   string
		checks []metrics.Check
		fails  string // a substring of the one claim that must fail; "" = none
	}{
		{"soak as measured", soak(func(*chaos.SoakReport) {}), ""},
		{"one duplicate", soak(func(r *chaos.SoakReport) { r.Duplicates = 1 }), "executes twice"},
		{"gap 2500ms", soak(func(r *chaos.SoakReport) { r.ServiceGapMs = 2500 }), "success gap"},
		{"never re-detected", soak(func(r *chaos.SoakReport) { r.RedetectMs = -1 }), "re-detected"},
		{"EF p99 11ms on a 1ms baseline", soak(func(r *chaos.SoakReport) { r.EFFaultP99Ms = 11 }), "EF p99 under BE torture"},
		{"pubsub as measured", pub(func(*experiments.PubSubResult) {}), ""},
		{"EF dropped 1", pub(func(r *experiments.PubSubResult) { r.EFDropped = 1 }), "EF subscriber"},
		{"other overflow 1", pub(func(r *experiments.PubSubResult) { r.SlowOverflow, r.OtherOverflow = 437, 1 }), "slow consumer"},
		{"drop records off by one", pub(func(r *experiments.PubSubResult) { r.DropRecords++ }), "every drop is a bus record"},
		{"obs as measured", obs(func(*obsResult) {}), ""},
		{"zero sampler ticks", obs(func(r *obsResult) { r.SamplerTicks = 0 }), "every observer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matched := false
			for _, c := range tc.checks {
				named := tc.fails != "" && strings.Contains(c.Claim, tc.fails)
				matched = matched || named
				if c.OK == named {
					t.Errorf("%q: ok=%v (%s)", c.Claim, c.OK, c.Detail)
				}
			}
			if tc.fails != "" && !matched {
				t.Errorf("no claim matches %q", tc.fails)
			}
		})
	}
}
