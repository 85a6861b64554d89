package pubsub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/quo"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// collect returns a Deliver func appending into a guarded slice.
func collect(mu *sync.Mutex, dst *[]Event) func(Event) {
	return func(ev Event) {
		mu.Lock()
		*dst = append(*dst, ev)
		mu.Unlock()
	}
}

func TestTopicAndPriorityFiltering(t *testing.T) {
	clk := sim.NewKernel(1)
	ch := New(ChannelConfig{Name: "t", Clock: clk})
	var mu sync.Mutex
	var cam, all, ef []Event
	mustSub(t, ch, SubscriberConfig{Name: "cam", Topic: "camera/**", Deliver: collect(&mu, &cam)})
	mustSub(t, ch, SubscriberConfig{Name: "all", Topic: "**", Deliver: collect(&mu, &all)})
	mustSub(t, ch, SubscriberConfig{Name: "ef", Topic: "**", MinPriority: 16000, Deliver: collect(&mu, &ef)})

	pub := func(topic string, prio int16) {
		t.Helper()
		if err := ch.Publish(Event{Topic: topic, Priority: prio}); err != nil {
			t.Fatalf("Publish(%s): %v", topic, err)
		}
	}
	pub("camera/front", 16000)
	pub("camera/back/raw", 0)
	pub("bulk/data", 0)
	ch.PumpAll()

	mu.Lock()
	defer mu.Unlock()
	if len(cam) != 2 {
		t.Errorf("cam got %d events, want 2", len(cam))
	}
	if len(all) != 3 {
		t.Errorf("all got %d events, want 3", len(all))
	}
	if len(ef) != 1 || ef[0].Topic != "camera/front" {
		t.Errorf("ef got %v, want just camera/front", ef)
	}
	mu.Unlock()

	// An unsubscribed consumer gets nothing further; the others do.
	if !ch.Unsubscribe("cam") {
		t.Fatal("Unsubscribe(cam) found no subscriber")
	}
	pub("camera/front", 0)
	ch.PumpAll()
	mu.Lock()
	if len(cam) != 2 || len(all) != 4 {
		t.Errorf("after unsubscribe cam got %d events (want 2), all got %d (want 4)", len(cam), len(all))
	}
}

// mustSub subscribes cfg; for a channel's first subscriber it also
// checks the channel's ledgers when the test ends.
func mustSub(t *testing.T, ch *Channel, cfg SubscriberConfig) *Subscriber {
	t.Helper()
	s, err := ch.Subscribe(cfg)
	if err != nil {
		t.Fatalf("Subscribe(%s): %v", cfg.Name, err)
	}
	if len(ch.Snapshot().Subscribers) == 1 {
		t.Cleanup(func() { checkLedger(t, ch) })
	}
	return s
}

// checkLedger asserts that every current subscriber's outbox conserves
// events: each one offered was delivered, dropped or is still queued.
// It holds at any instant no publisher is waiting for Block space.
func checkLedger(t *testing.T, ch *Channel) {
	t.Helper()
	for _, s := range ch.Snapshot().Subscribers {
		if s.Offered != s.Delivered+s.Dropped+uint64(s.Depth) {
			t.Errorf("subscriber %s: offered %d != delivered %d + dropped %d + depth %d",
				s.Name, s.Offered, s.Delivered, s.Dropped, s.Depth)
		}
	}
}

func TestOverflowPolicies(t *testing.T) {
	clk := sim.NewKernel(1)
	t.Run("DropOldest", func(t *testing.T) {
		ch := New(ChannelConfig{Clock: clk})
		var mu sync.Mutex
		var got []Event
		mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 2, Policy: DropOldest, Deliver: collect(&mu, &got)})
		for i := 0; i < 4; i++ {
			ch.Publish(Event{Topic: "t", Key: fmt.Sprint(i)})
		}
		ch.PumpAll()
		want := []string{"2", "3"} // 0 and 1 evicted
		checkKeys(t, &mu, got, want)
		if st := sub(ch, "s").Stats(); st.Dropped != 2 {
			t.Errorf("dropped = %d, want 2", st.Dropped)
		}
	})
	t.Run("DropNewest", func(t *testing.T) {
		ch := New(ChannelConfig{Clock: clk})
		var mu sync.Mutex
		var got []Event
		mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 2, Policy: DropNewest, Deliver: collect(&mu, &got)})
		for i := 0; i < 4; i++ {
			ch.Publish(Event{Topic: "t", Key: fmt.Sprint(i)})
		}
		ch.PumpAll()
		checkKeys(t, &mu, got, []string{"0", "1"}) // 2 and 3 refused
	})
	t.Run("CoalesceByKey", func(t *testing.T) {
		ch := New(ChannelConfig{Clock: clk})
		var mu sync.Mutex
		var got []Event
		mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 8, Policy: CoalesceByKey, Deliver: collect(&mu, &got)})
		// Three frames for stream "a" coalesce to the last; "b" keeps one.
		for i := 0; i < 3; i++ {
			ch.Publish(Event{Topic: "video", Key: "a", Payload: []byte{byte(i)}})
		}
		ch.Publish(Event{Topic: "video", Key: "b"})
		ch.PumpAll()
		mu.Lock()
		defer mu.Unlock()
		if len(got) != 2 {
			t.Fatalf("delivered %d events, want 2 (coalesced)", len(got))
		}
		if got[0].Key != "a" || got[0].Payload[0] != 2 {
			t.Errorf("stream a delivered payload %v, want the latest frame", got[0].Payload)
		}
		if st := sub(ch, "s").Stats(); st.Coalesced != 2 {
			t.Errorf("coalesced = %d, want 2", st.Coalesced)
		}
	})
	t.Run("BlockNeedsAsync", func(t *testing.T) {
		ch := New(ChannelConfig{Clock: clk})
		if _, err := ch.Subscribe(SubscriberConfig{Name: "s", Policy: Block, Deliver: func(Event) {}}); err == nil {
			t.Fatal("Block policy on a manual channel should be rejected")
		}
	})
	t.Run("BlockIsLossless", func(t *testing.T) {
		ch := New(ChannelConfig{Async: true})
		var n atomic.Int64
		mustSub(t, ch, SubscriberConfig{
			Name: "s", Outbox: 4, Policy: Block,
			Deliver: func(Event) { n.Add(1); time.Sleep(100 * time.Microsecond) },
		})
		const total = 200
		for i := 0; i < total; i++ {
			if err := ch.Publish(Event{Topic: "t"}); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		ch.Close() // drains the backlog before returning
		if n.Load() != total {
			t.Errorf("delivered %d, want %d (Block must not lose events)", n.Load(), total)
		}
		if st := ch.Snapshot(); st.Dropped != 0 {
			t.Errorf("dropped = %d, want 0", st.Dropped)
		}
	})
}

func checkKeys(t *testing.T, mu *sync.Mutex, got []Event, want []string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Key != w {
			t.Errorf("event %d key = %q, want %q", i, got[i].Key, w)
		}
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	clk := sim.NewKernel(1)
	ch := New(ChannelConfig{Clock: clk})
	ch.Limit("bulk/**", 10, 5) // 10/s, burst 5
	mustSub(t, ch, SubscriberConfig{Name: "s", Deliver: func(Event) {}})

	refused := 0
	for i := 0; i < 8; i++ {
		if err := ch.Publish(Event{Topic: "bulk/data"}); errors.Is(err, ErrSaturated) {
			refused++
		}
	}
	if refused != 3 {
		t.Errorf("refused %d of 8 at burst 5, want 3", refused)
	}
	// Unlimited topics never refuse.
	if err := ch.Publish(Event{Topic: "camera/front"}); err != nil {
		t.Errorf("unlimited topic refused: %v", err)
	}
	// Virtual half a second refills 5 tokens.
	clk.RunFor(500 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if err := ch.Publish(Event{Topic: "bulk/data"}); err != nil {
			t.Fatalf("publish %d after refill: %v", i, err)
		}
	}
	if err := ch.Publish(Event{Topic: "bulk/data"}); !errors.Is(err, ErrSaturated) {
		t.Errorf("6th publish after 5-token refill = %v, want ErrSaturated", err)
	}
	if snap := ch.Snapshot(); snap.Refused != 4 {
		t.Errorf("snapshot refused = %d, want 4", snap.Refused)
	}
}

func TestDegradedModeSpareEF(t *testing.T) {
	clk := sim.NewKernel(1)
	ch := New(ChannelConfig{Clock: clk})
	var mu sync.Mutex
	var ef, be []Event
	mustSub(t, ch, SubscriberConfig{Name: "ef", Priority: 16000, Outbox: 256, Deliver: collect(&mu, &ef)})
	mustSub(t, ch, SubscriberConfig{Name: "be", Priority: 0, Outbox: 256, SampleEvery: 3, Deliver: collect(&mu, &be)})

	if n := ch.SetDegraded(true); n != 1 {
		t.Fatalf("SetDegraded toggled %d subscribers, want 1 (the BE one)", n)
	}
	if subDegraded(sub(ch, "ef")) {
		t.Fatal("EF subscriber must not degrade")
	}
	// Un-keyed events: BE keeps 1 in 3, EF keeps all.
	for i := 0; i < 9; i++ {
		ch.Publish(Event{Topic: "t"})
	}
	// Keyed events: BE coalesces per key, EF keeps all.
	for i := 0; i < 4; i++ {
		ch.Publish(Event{Topic: "video", Key: "cam0"})
	}
	ch.PumpAll()
	mu.Lock()
	gotEF, gotBE := len(ef), len(be)
	mu.Unlock()
	if gotEF != 13 {
		t.Errorf("EF delivered %d, want all 13", gotEF)
	}
	if gotBE != 4 { // 3 of 9 sampled + 1 coalesced survivor
		t.Errorf("degraded BE delivered %d, want 4", gotBE)
	}
	st := sub(ch, "be").Stats()
	if st.Sampled != 6 || st.Coalesced != 3 {
		t.Errorf("BE sampled=%d coalesced=%d, want 6 and 3", st.Sampled, st.Coalesced)
	}

	// Recovery restores full streams.
	ch.SetDegraded(false)
	for i := 0; i < 5; i++ {
		ch.Publish(Event{Topic: "t"})
	}
	ch.PumpAll()
	mu.Lock()
	defer mu.Unlock()
	if len(be) != gotBE+5 {
		t.Errorf("recovered BE delivered %d more, want 5", len(be)-gotBE)
	}
}

// TestHooksAndSnapshot pins the channel's own bus records: outbox
// overflows become KindDrop records and watermark crossings KindSubLag
// records, sourced "pubsub/<name>" and stamped with the channel's clock
// even on a bus with another clock.
func TestHooksAndSnapshot(t *testing.T) {
	clk := sim.NewKernel(1)
	bus, log := recordBus(events.KindDrop, events.KindSubLag)
	ch := New(ChannelConfig{Name: "mon", Clock: clk, Bus: bus})
	mustSub(t, ch, SubscriberConfig{Name: "slow", Outbox: 10, Deliver: func(Event) {}})

	for i := 0; i < 12; i++ {
		clk.RunFor(time.Millisecond)
		ch.Publish(Event{Topic: "t"})
	}
	var drops, lags []events.Record
	split := func() {
		drops, lags = nil, nil
		for _, r := range log.Records() {
			if r.Kind == events.KindDrop {
				drops = append(drops, r)
			} else {
				lags = append(lags, r)
			}
		}
	}
	split()
	if len(drops) != 2 {
		t.Fatalf("%d drop records, want 2:\n%s", len(drops), log.Render())
	}
	for i, r := range drops {
		if r.Source != "pubsub/mon" || field(r, "sub") != "slow" || field(r, "reason") != "overflow" ||
			field(r, "policy") != "drop-oldest" || field(r, "seq") != fmt.Sprint(i+1) {
			t.Errorf("drop record %v, want source pubsub/mon, sub=slow reason=overflow policy=drop-oldest seq=%d", r, i+1)
		}
		if want := sim.Time(11+i) * time.Millisecond; r.At != want {
			t.Errorf("drop record at %v, want the channel clock's %v", r.At, want)
		}
	}
	if len(lags) != 1 || field(lags[0], "state") != "lagging" {
		t.Fatalf("sub_lag records %v, want one 'lagging' crossing", lags)
	}

	ch.PumpAll() // draining clears the lag mark
	split()
	if len(lags) != 2 || field(lags[1], "state") != "cleared" {
		t.Errorf("sub_lag records after drain %v, want a 'cleared' transition", lags)
	}

	snap := ch.Snapshot()
	if snap.Published != 12 || snap.Delivered != 10 || snap.Dropped != 2 {
		t.Errorf("snapshot = %+v, want published=12 delivered=10 dropped=2", snap)
	}
	reg := ch.Registry()
	if v := reg.Counter("pubsub.outcomes", telemetry.L("outcome", "overflow"), telemetry.L("sub", "slow")).Value(); v != 2 {
		t.Errorf("pubsub.outcomes{overflow} counter = %g, want 2", v)
	}
}

func TestBindContractDegradesOnRegion(t *testing.T) {
	clk := sim.NewKernel(1)
	ch := New(ChannelConfig{Clock: clk})
	mustSub(t, ch, SubscriberConfig{Name: "be", Priority: 0, Deliver: func(Event) {}})

	load := quo.NewMeasuredCond("load", 0)
	c := quo.NewContract("diss", 0)
	c.AddCondition(load)
	c.AddRegion(quo.Region{Name: "degraded", When: func(v quo.Values) bool { return v["load"] > 0.8 }})
	c.AddRegion(quo.Region{Name: "normal"})
	BindContract(c, ch, "degraded")

	c.Eval()
	if degraded(ch) {
		t.Fatal("channel degraded in normal region")
	}
	load.Set(0.9)
	c.Eval()
	if !degraded(ch) || !subDegraded(sub(ch, "be")) {
		t.Fatal("entering the degraded region must downgrade BE subscribers")
	}
	load.Set(0.1)
	c.Eval()
	if degraded(ch) {
		t.Fatal("returning to normal must restore full fan-out")
	}
}

// TestDegradePubSubOnBurn pins the adaptive trigger: any firing alert or
// SLO burn degrades BE subscribers; when the last source resolves, full
// fan-out resumes.
func TestDegradePubSubOnBurn(t *testing.T) {
	ch := New(ChannelConfig{Name: "adapt"})
	mustSub(t, ch, SubscriberConfig{Name: "be", Priority: 0, Deliver: func(Event) {}})
	bus := events.NewBus(sim.Wall)
	sub := DegradePubSubOnBurn(bus, ch)
	defer sub.Cancel()

	bus.Publish(events.KindAlert, "rule/ef_hot", events.F("state", "firing"))
	if !degraded(ch) {
		t.Fatal("firing alert must degrade the channel")
	}
	bus.Publish(events.KindSLOBurn, "slo/echo", events.F("state", "firing"))
	bus.Publish(events.KindAlert, "rule/ef_hot", events.F("state", "resolved"))
	if !degraded(ch) {
		t.Fatal("one source still firing: channel must stay degraded")
	}
	bus.Publish(events.KindSLOBurn, "slo/echo", events.F("state", "resolved"))
	if degraded(ch) {
		t.Fatal("all sources resolved: channel must recover")
	}
	// Records without a state field (other kinds' shapes) are ignored.
	bus.Publish(events.KindAlert, "rule/odd")
	if degraded(ch) {
		t.Fatal("stateless record must not flip degradation")
	}
}

// TestBusSubscriberReentersChannel: the channel publishes its records
// with no channel or subscriber lock held, so a bus subscriber may call
// back into it, as DegradePubSubOnBurn does.
func TestBusSubscriberReentersChannel(t *testing.T) {
	bus := events.NewBus(sim.Wall)
	ch := New(ChannelConfig{Bus: bus})
	var kinds []events.Kind
	bus.Subscribe(func(r events.Record) {
		kinds = append(kinds, r.Kind)
		ch.Snapshot() // takes the channel lock and every subscriber's
		ch.SetDegraded(false)
	})
	mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 2, Deliver: func(Event) {}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ { // lagging at depth 2, then two overflows
			ch.Publish(Event{Topic: "t"})
		}
		ch.PumpAll() // cleared on the first pop
		ch.Publish(Event{Topic: "t"})
		ch.Unsubscribe("s") // one closed drop
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a bus subscriber calling back into the channel deadlocked")
	}
	want := fmt.Sprint([]events.Kind{events.KindSubLag, events.KindDrop, events.KindDrop, events.KindSubLag, events.KindDrop})
	if got := fmt.Sprint(kinds); got != want {
		t.Errorf("records %s, want %s", got, want)
	}
}

func TestLagCond(t *testing.T) {
	clk := sim.NewKernel(1)
	ch := New(ChannelConfig{Name: "lc", Clock: clk})
	mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 10, Deliver: func(Event) {}})
	cond := LagCond(ch)
	if v := cond.Value(); v != 0 {
		t.Fatalf("empty channel fill = %g, want 0", v)
	}
	for i := 0; i < 5; i++ {
		ch.Publish(Event{Topic: "t"})
	}
	if v := cond.Value(); v != 0.5 {
		t.Errorf("fill = %g, want 0.5", v)
	}
	if cond.Name() != "pubsub.lc.fill" {
		t.Errorf("cond name = %q", cond.Name())
	}
}

// TestScenarioSimClock is the deterministic sim-clock variant of the
// qosbench pubsub scenario: an EF camera feed fanning out to an EF
// display plus a flood of BE subscribers, one deliberately slow. Run
// under -race in CI. The invariants mirror qosbench -run pubsub's
// claims: the EF subscriber never drops, and every overflow drop lands
// on the slow BE subscriber's outbox policy.
func TestScenarioSimClock(t *testing.T) {
	clk := sim.NewKernel(1)
	bus, log := recordBus(events.KindDrop)
	ch := New(ChannelConfig{Name: "scenario", Clock: clk, Bus: bus})
	ch.Limit("bulk/**", 2000, 100)

	var mu sync.Mutex
	var efLatencies []sim.Time

	mustSub(t, ch, SubscriberConfig{
		Name: "display-ef", Topic: "camera/**", MinPriority: 16000, Priority: 16000, Outbox: 128,
		Deliver: func(ev Event) {
			mu.Lock()
			efLatencies = append(efLatencies, clk.Now()-ev.Published)
			mu.Unlock()
		},
	})
	for i := 0; i < 4; i++ {
		mustSub(t, ch, SubscriberConfig{
			Name: fmt.Sprintf("be-%d", i), Topic: "**", Priority: 0, Outbox: 64,
			Deliver: func(Event) {},
		})
	}
	slow := mustSub(t, ch, SubscriberConfig{
		Name: "be-slow", Topic: "**", Priority: 0, Outbox: 16, Policy: DropOldest,
		Deliver: func(Event) {},
	})

	// 600 ticks of 1ms: a camera frame every 3rd tick (~333 Hz EF), bulk
	// BE events every tick. Fast subscribers drain fully each tick; the
	// slow one only once every 8 ticks.
	frames := 0
	for tick := 0; tick < 600; tick++ {
		clk.RunFor(time.Millisecond)
		if tick%3 == 0 {
			if err := ch.Publish(Event{Topic: "camera/frames", Key: "cam0", Priority: 16000}); err != nil {
				t.Fatalf("EF publish: %v", err)
			}
			frames++
		}
		ch.Publish(Event{Topic: "bulk/data", Priority: 0}) // admission may refuse; that's the design
		sub(ch, "display-ef").PumpOne()
		for i := 0; i < 4; i++ {
			for sub(ch, fmt.Sprintf("be-%d", i)).PumpOne() {
			}
		}
		if tick%8 == 0 {
			slow.PumpOne()
		}
	}
	ch.PumpAll()

	efStats := sub(ch, "display-ef").Stats()
	if efStats.Dropped != 0 {
		t.Errorf("EF subscriber dropped %d events, want 0", efStats.Dropped)
	}
	if efStats.Delivered != uint64(frames) {
		t.Errorf("EF delivered %d of %d frames", efStats.Delivered, frames)
	}
	slowStats := slow.Stats()
	if slowStats.Dropped == 0 {
		t.Error("slow BE subscriber dropped nothing; the scenario must saturate it")
	}
	snap := ch.Snapshot()
	if snap.Dropped != slowStats.Dropped {
		t.Errorf("channel drops %d != slow-sub drops %d: losses leaked to other subscribers", snap.Dropped, slowStats.Dropped)
	}
	if log.Len() != int(slowStats.Dropped) {
		t.Errorf("%d drop records, be-slow stats say %d drops", log.Len(), slowStats.Dropped)
	}
	for _, r := range log.Records() {
		if sub := field(r, "sub"); sub != "be-slow" {
			t.Errorf("drop record for %s; only be-slow may drop", sub)
		}
	}
	// Determinism: the virtual clock makes the counts exact run to run —
	// published = frames + (bulk attempts - admission refusals).
	if snap.Published != uint64(frames)+600-snap.Refused {
		t.Errorf("snapshot bookkeeping off: published=%d refused=%d frames=%d", snap.Published, snap.Refused, frames)
	}
}

// TestAsyncConcurrency hammers an async channel from many publishers
// while subscribers come and go; run under -race.
func TestAsyncConcurrency(t *testing.T) {
	ch := New(ChannelConfig{Async: true})
	var delivered atomic.Int64
	for i := 0; i < 4; i++ {
		mustSub(t, ch, SubscriberConfig{
			Name: fmt.Sprintf("s%d", i), Outbox: 32,
			Deliver: func(Event) { delivered.Add(1) },
		})
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				ch.Publish(Event{Topic: "t", Key: fmt.Sprint(i % 7)})
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("churn%d", i)
			s, err := ch.Subscribe(SubscriberConfig{Name: name, Outbox: 8, Deliver: func(Event) {}})
			if err != nil || s == nil {
				return
			}
			ch.Unsubscribe(name)
		}
	}()
	wg.Wait()
	ch.Close()
	snap := ch.Snapshot()
	if snap.Published != 1000 {
		t.Errorf("published %d, want 1000", snap.Published)
	}
	if delivered.Load() == 0 {
		t.Error("nothing delivered")
	}
}

// sub returns the named subscriber, or nil.
func sub(ch *Channel, name string) *Subscriber {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.subs[name]
}

// degraded reports the channel-wide degradation mode.
func degraded(ch *Channel) bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.degraded
}

// subDegraded reports the subscriber's degraded state.
func subDegraded(s *Subscriber) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}
