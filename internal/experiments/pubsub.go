package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/pubsub"
	"repro/internal/quo"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// The pub/sub experiment prices the event channel's isolation claim on
// the wall clock: an expedited camera feed fans out through the same
// channel as a best-effort bulk flood, with one deliberately slow
// best-effort consumer. The channel must keep the camera stream
// lossless and its fan-out latency within a small factor of the
// unloaded baseline, shed load only at the subscriber that earned it,
// and surface every drop as both a counter and a bus record. A QuO
// contract watching outbox fill drives the degradation hook, so the
// adaptive path (coalesce keyed streams, sample un-keyed ones for BE
// subscribers) is exercised by measurement, not by hand.

// PubSubResult is the measured outcome of RunPubSub.
type PubSubResult struct {
	// Baseline and Loaded summarize the EF subscriber's fan-out latency
	// (publish to deliver, seconds) before and during the bulk flood.
	Baseline metrics.Summary
	Loaded   metrics.Summary
	// Published and Refused are the channel's admission totals; Refused
	// counts token-bucket refusals of the bulk flood.
	Published uint64
	Refused   uint64
	// EFDelivered/EFDropped are the expedited subscriber's totals; the
	// isolation claim requires EFDropped == 0.
	EFDelivered uint64
	EFDropped   uint64
	// SlowOverflow and OtherOverflow attribute overflow drops: the slow
	// consumer must absorb all of them.
	SlowOverflow  uint64
	OtherOverflow uint64
	// Coalesced and Sampled count events folded by the degradation path
	// across all subscribers.
	Coalesced uint64
	Sampled   uint64
	// DropRecords and LagRecords count the bus records the monitoring
	// plane emitted (KindDrop and KindSubLag).
	DropRecords int
	LagRecords  int
	// DegradeEngaged reports whether the contract ever entered the
	// saturated region, and Transitions how often it moved.
	DegradeEngaged bool
	Transitions    int64
	// Duration is the total measured wall time; Snap the final channel
	// state.
	Duration time.Duration
	Snap     pubsub.ChannelSnapshot
}

// FanoutP99Ratio is Loaded p99 over Baseline p99, with the baseline
// floored at 250µs: both phases complete in well under a millisecond on
// an unloaded host, so without the floor the ratio is scheduler noise
// divided by scheduler noise. A real priority inversion (EF frames
// queued behind the flood) shows up as milliseconds and still trips
// the 5x limit.
func (r PubSubResult) FanoutP99Ratio() float64 {
	base := r.Baseline.P99
	if floor := 250e-6; base < floor {
		base = floor
	}
	if base <= 0 {
		return 0
	}
	ratio := r.Loaded.P99 / base
	if ratio < 1 {
		ratio = 1
	}
	return ratio
}

// Violations returns the invariants the run breached, empty when clean.
func (r PubSubResult) Violations() []string {
	var v []string
	if r.EFDropped != 0 {
		v = append(v, fmt.Sprintf("EF subscriber dropped %d events, want 0", r.EFDropped))
	}
	if ratio := r.FanoutP99Ratio(); ratio > 5 {
		v = append(v, fmt.Sprintf("EF fan-out p99 ratio %.2f exceeds 5x baseline", ratio))
	}
	if r.OtherOverflow != 0 {
		v = append(v, fmt.Sprintf("%d overflow drops at subscribers other than the slow consumer", r.OtherOverflow))
	}
	if r.SlowOverflow == 0 {
		v = append(v, "slow consumer dropped nothing: the flood never saturated it")
	}
	if r.Refused == 0 {
		v = append(v, "admission refused nothing: the token bucket never engaged")
	}
	if uint64(r.DropRecords) != r.Snap.Dropped {
		v = append(v, fmt.Sprintf("bus saw %d drop records, outbox ledgers count %d drops", r.DropRecords, r.Snap.Dropped))
	}
	return v
}

// RunPubSub runs the wall-clock pub/sub scenario in-process: a ~300 Hz
// expedited camera feed and, in the loaded phase, a ~2 kHz best-effort
// bulk flood, fanned out to one EF display, four fast BE tiles, and one
// slow BE analytics consumer whose 1 ms handler cannot keep up.
func RunPubSub(opt Options) PubSubResult {
	total := opt.duration(2 * time.Second)
	baselinePhase := total * 3 / 10

	start := time.Now()
	reg := telemetry.NewRegistry()
	ch := pubsub.New(pubsub.ChannelConfig{Name: "bench", Async: true, Registry: reg})
	defer ch.Close()
	// Admit at most 1.5 kHz of bulk with a 200-event burst: the 2 kHz
	// flood must see refusals.
	ch.Limit("bulk/**", 1500, 200)

	bus := events.NewBus(sim.Wall)
	dropTL := events.NewTimeline(bus, events.KindDrop)
	lagTL := events.NewTimeline(bus, events.KindSubLag)
	monitor.WirePubSub(bus, ch)

	// EF latency, split by phase at delivery time.
	var loaded atomic.Bool
	baseSeries := metrics.NewSeries("ef baseline")
	loadSeries := metrics.NewSeries("ef loaded")
	var seriesMu sync.Mutex
	mustSubscribe(ch, pubsub.SubscriberConfig{
		Name: "display", Topic: "camera/**", Priority: pubsub.EFFloor, Outbox: 128,
		Deliver: func(ev pubsub.Event) {
			lat := ch.Now() - ev.Published
			seriesMu.Lock()
			if loaded.Load() {
				loadSeries.AddDuration(ch.Now(), time.Duration(lat))
			} else {
				baseSeries.AddDuration(ch.Now(), time.Duration(lat))
			}
			seriesMu.Unlock()
		},
	})
	for i := 0; i < 4; i++ {
		mustSubscribe(ch, pubsub.SubscriberConfig{
			Name: fmt.Sprintf("tile-%d", i), Topic: "**", Outbox: 64,
			Deliver: func(pubsub.Event) {},
		})
	}
	mustSubscribe(ch, pubsub.SubscriberConfig{
		Name: "analytics-slow", Topic: "**", Outbox: 16, Policy: pubsub.DropOldest,
		Deliver: func(pubsub.Event) { time.Sleep(time.Millisecond) },
	})

	// The contract watches outbox fill and flips the degradation hook.
	cond := pubsub.LagCond(ch)
	contract := quo.NewContract("pubsub.fill", 0).
		AddCondition(cond).
		AddRegion(quo.Region{Name: "saturated", When: func(v quo.Values) bool { return v[cond.Name()] >= 0.75 }}).
		AddRegion(quo.Region{Name: "steady"})
	pubsub.BindContract(contract, ch, "saturated")
	var engaged atomic.Bool
	contract.OnEnter("saturated", func(quo.Values) { engaged.Store(true) })

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Contract evaluation loop: the QuO decide step, every 20 ms.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				contract.Eval()
			}
		}
	}()

	frame := make([]byte, 4096)
	// Camera feed: one EF keyed frame every 3.3 ms (~300 Hz).
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(3333 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = ch.Publish(pubsub.Event{
					Topic: "camera/front", Key: "cam0",
					Priority: pubsub.EFFloor, Payload: frame,
				})
			}
		}
	}()
	// Bulk flood: 10 un-keyed BE events every 5 ms (~2 kHz), loaded
	// phase only. Refusals are the admission layer working.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if !loaded.Load() {
					continue
				}
				for i := 0; i < 10; i++ {
					_ = ch.Publish(pubsub.Event{Topic: "bulk/data", Payload: frame[:512]})
				}
			}
		}
	}()

	time.Sleep(baselinePhase)
	loaded.Store(true)
	time.Sleep(total - baselinePhase)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	snap := ch.Snapshot()
	res := PubSubResult{
		Published:      snap.Published,
		Refused:        snap.Refused,
		DropRecords:    dropTL.Len(),
		LagRecords:     lagTL.Len(),
		DegradeEngaged: engaged.Load(),
		Transitions:    contract.Transitions(),
		Duration:       elapsed,
		Snap:           snap,
	}
	seriesMu.Lock()
	res.Baseline = baseSeries.Summarize()
	res.Loaded = loadSeries.Summarize()
	seriesMu.Unlock()
	for _, s := range snap.Subscribers {
		if s.Name == "analytics-slow" {
			res.SlowOverflow += s.Overflow
		} else {
			res.OtherOverflow += s.Overflow
		}
		res.Coalesced += s.Coalesced
		res.Sampled += s.Sampled
		if s.Priority >= pubsub.EFFloor {
			res.EFDelivered += s.Delivered
			res.EFDropped += s.Dropped
		}
	}
	return res
}

// mustSubscribe panics on a bad experiment-internal subscriber config;
// these are fixed at compile time, so failure is a programming error.
func mustSubscribe(ch *pubsub.Channel, cfg pubsub.SubscriberConfig) {
	if _, err := ch.Subscribe(cfg); err != nil {
		panic(err)
	}
}

// Render formats the pub/sub result for the console.
func (r PubSubResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pub/sub channel under flood (%v wall time)\n", r.Duration.Round(time.Millisecond))
	t := metrics.NewTable("EF fan-out latency (publish -> deliver)", "phase", "n", "p50", "p95", "p99")
	row := func(name string, s metrics.Summary) {
		t.AddRow(name, fmt.Sprint(s.N),
			metrics.FormatDuration(time.Duration(s.P50*1e9)),
			metrics.FormatDuration(time.Duration(s.P95*1e9)),
			metrics.FormatDuration(time.Duration(s.P99*1e9)))
	}
	row("baseline", r.Baseline)
	row("loaded", r.Loaded)
	b.WriteString(t.Render())
	fmt.Fprintf(&b, "p99 ratio %.2fx (limit 5x)\n", r.FanoutP99Ratio())
	fmt.Fprintf(&b, "published %d, refused %d (admission), EF delivered %d dropped %d\n",
		r.Published, r.Refused, r.EFDelivered, r.EFDropped)
	fmt.Fprintf(&b, "overflow drops: slow consumer %d, others %d; coalesced %d, sampled %d\n",
		r.SlowOverflow, r.OtherOverflow, r.Coalesced, r.Sampled)
	fmt.Fprintf(&b, "bus records: %d drops, %d sub-lag; degradation engaged %v (%d region transitions)\n",
		r.DropRecords, r.LagRecords, r.DegradeEngaged, r.Transitions)
	if v := r.Violations(); len(v) > 0 {
		for _, msg := range v {
			fmt.Fprintf(&b, "VIOLATION: %s\n", msg)
		}
	} else {
		b.WriteString("all invariants hold\n")
	}
	return b.String()
}
