package pubsub

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace/telemetry"
)

// outcomeField reads one outcome's count off a subscriber snapshot.
var outcomeField = [numOutcomes]func(SubSnapshot) uint64{
	outcomeDelivered: func(s SubSnapshot) uint64 { return s.Delivered },
	outcomeOverflow:  func(s SubSnapshot) uint64 { return s.Overflow },
	outcomeCoalesced: func(s SubSnapshot) uint64 { return s.Coalesced },
	outcomeSampled:   func(s SubSnapshot) uint64 { return s.Sampled },
	outcomeClosed:    func(s SubSnapshot) uint64 { return s.Closed },
}

// waitFor polls cond until it holds, failing the test after 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestOutboxOutcomeEachFate drives one event to each outcome and checks
// that exactly that outcome's pubsub.outcomes series and Stats field
// move, by one, and that the drop hook hears of every drop by its name.
func TestOutboxOutcomeEachFate(t *testing.T) {
	publish := func(t *testing.T, ch *Channel, key string) {
		t.Helper()
		if err := ch.Publish(Event{Topic: "t", Key: key}); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	for _, tc := range []struct {
		name string
		want outcome
		// setup brings subscriber "s" to the edge of the fate and returns
		// the step that settles one event.
		setup func(t *testing.T) (*Channel, *Subscriber, func())
	}{
		{"Delivered", outcomeDelivered, func(t *testing.T) (*Channel, *Subscriber, func()) {
			ch := New(ChannelConfig{})
			s := mustSub(t, ch, SubscriberConfig{Name: "s", Deliver: func(Event) {}})
			publish(t, ch, "")
			return ch, s, func() { s.PumpOne() }
		}},
		{"DropOldest", outcomeOverflow, func(t *testing.T) (*Channel, *Subscriber, func()) {
			ch := New(ChannelConfig{})
			s := mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 1, Policy: DropOldest, Deliver: func(Event) {}})
			publish(t, ch, "")
			return ch, s, func() { publish(t, ch, "") }
		}},
		{"DropNewest", outcomeOverflow, func(t *testing.T) (*Channel, *Subscriber, func()) {
			ch := New(ChannelConfig{})
			s := mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 1, Policy: DropNewest, Deliver: func(Event) {}})
			publish(t, ch, "")
			return ch, s, func() { publish(t, ch, "") }
		}},
		{"CoalesceByKey", outcomeCoalesced, func(t *testing.T) (*Channel, *Subscriber, func()) {
			ch := New(ChannelConfig{})
			s := mustSub(t, ch, SubscriberConfig{Name: "s", Policy: CoalesceByKey, Deliver: func(Event) {}})
			publish(t, ch, "k")
			return ch, s, func() { publish(t, ch, "k") }
		}},
		{"DegradedSampling", outcomeSampled, func(t *testing.T) (*Channel, *Subscriber, func()) {
			ch := New(ChannelConfig{})
			s := mustSub(t, ch, SubscriberConfig{Name: "s", SampleEvery: 2, Deliver: func(Event) {}})
			ch.SetDegraded(true)
			return ch, s, func() { publish(t, ch, "") }
		}},
		{"BlockWokenByClose", outcomeClosed, func(t *testing.T) (*Channel, *Subscriber, func()) {
			ch := New(ChannelConfig{Async: true})
			entered, gate := make(chan struct{}, 1), make(chan struct{})
			s := mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 1, Policy: Block, Deliver: func(Event) {
				entered <- struct{}{}
				<-gate
			}})
			publish(t, ch, "") // the pump takes it and parks in Deliver
			<-entered
			publish(t, ch, "") // queued: the outbox is full
			closed := make(chan struct{})
			t.Cleanup(func() {
				close(gate)
				<-closed
			})
			return ch, s, func() {
				published := make(chan struct{})
				go func() {
					defer close(published)
					if err := ch.Publish(Event{Topic: "t"}); err != nil { // waits for space
						t.Errorf("Publish: %v", err)
					}
				}()
				waitFor(t, "the Block publisher to wait", func() bool { return s.Stats().Offered == 3 })
				go func() {
					defer close(closed)
					ch.Close() // returns once the pump drains, after the gate opens
				}()
				<-published
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch, s, step := tc.setup(t)
			var mu sync.Mutex
			var drops []DropInfo
			ch.SetDropHook(func(d DropInfo) { mu.Lock(); drops = append(drops, d); mu.Unlock() })
			series := func() (n [numOutcomes]float64) {
				for o := range n {
					n[o] = ch.Registry().Counter("pubsub.outcomes",
						telemetry.L("sub", "s"), telemetry.L("outcome", outcomeNames[o])).Value()
				}
				return n
			}
			seriesBefore, statsBefore := series(), s.Stats()
			step()
			seriesAfter, statsAfter := series(), s.Stats()
			for o := outcome(0); o < numOutcomes; o++ {
				want := 0
				if o == tc.want {
					want = 1
				}
				if d := seriesAfter[o] - seriesBefore[o]; d != float64(want) {
					t.Errorf("pubsub.outcomes{outcome=%s} moved by %g, want %d", outcomeNames[o], d, want)
				}
				if d := outcomeField[o](statsAfter) - outcomeField[o](statsBefore); d != uint64(want) {
					t.Errorf("Stats %s moved by %d, want %d", outcomeNames[o], d, want)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case tc.want == outcomeDelivered && len(drops) != 0:
				t.Errorf("a delivery reached the drop hook: %+v", drops)
			case tc.want != outcomeDelivered && (len(drops) != 1 || drops[0].Reason != outcomeNames[tc.want] || drops[0].Sub != "s"):
				t.Errorf("drop hook saw %+v, want one drop of s with reason %s", drops, outcomeNames[tc.want])
			}
		})
	}
}

// TestUnsubscribeSettlesBacklog: unsubscribing with events queued settles
// each as closed, tells the drop hook, and keeps them in the channel's
// totals after the subscriber is gone. On an async channel the pump
// stops instead of pushing the backlog.
func TestUnsubscribeSettlesBacklog(t *testing.T) {
	const backlog = 5
	for _, mode := range []string{"Manual", "Async"} {
		async := mode == "Async"
		t.Run(mode, func(t *testing.T) {
			ch := New(ChannelConfig{Async: async})
			var mu sync.Mutex
			var drops []DropInfo
			ch.SetDropHook(func(d DropInfo) { mu.Lock(); drops = append(drops, d); mu.Unlock() })
			var pushed atomic.Int64
			entered, gate := make(chan struct{}, 1), make(chan struct{})
			s := mustSub(t, ch, SubscriberConfig{Name: "s", Outbox: 8, Deliver: func(Event) {
				pushed.Add(1)
				if async {
					entered <- struct{}{}
					<-gate
				}
			}})
			var delivered uint64
			if async {
				// The pump takes the first event and parks in Deliver, so
				// the next five stay queued.
				ch.Publish(Event{Topic: "t"})
				<-entered
				delivered = 1
			}
			for i := 0; i < backlog; i++ {
				ch.Publish(Event{Topic: "t"})
			}
			if st := s.Stats(); st.Depth != backlog {
				t.Fatalf("depth before unsubscribe = %d, want %d", st.Depth, backlog)
			}

			if !ch.Unsubscribe("s") {
				t.Fatal("Unsubscribe found no subscriber")
			}
			close(gate)
			ch.Close() // waits for the async pump to exit

			if st := s.Stats(); st.Closed != backlog || st.Depth != 0 || st.Delivered != delivered {
				t.Errorf("stats after unsubscribe = %+v, want closed %d, depth 0, delivered %d", st, backlog, delivered)
			}
			if n := pushed.Load(); n != int64(delivered) {
				t.Errorf("Deliver ran %d times, want %d: the backlog was pushed after Unsubscribe", n, delivered)
			}
			mu.Lock()
			if len(drops) != backlog {
				t.Errorf("drop hook fired %d times, want %d", len(drops), backlog)
			}
			for _, d := range drops {
				if d.Reason != "closed" || d.Sub != "s" {
					t.Errorf("drop = %+v, want sub=s reason=closed", d)
				}
			}
			mu.Unlock()
			snap := ch.Snapshot()
			if len(snap.Subscribers) != 0 || snap.Dropped != backlog || snap.Delivered != delivered {
				t.Errorf("channel snapshot = %+v, want no subscribers, dropped %d, delivered %d", snap, backlog, delivered)
			}
		})
	}
}

// TestLedgerConservedUnderChurn races publishers against subscribers
// joining and leaving, over every policy, and then reconciles: the
// channel's totals account for every event offered to every subscriber
// it ever had, Deliver ran once per delivery, and the drop hook fired
// once per drop. Run under -race.
func TestLedgerConservedUnderChurn(t *testing.T) {
	ch := New(ChannelConfig{Async: true})
	var pushed, dropHooks atomic.Int64
	ch.SetDropHook(func(DropInfo) { dropHooks.Add(1) })
	deliver := func(Event) {
		pushed.Add(1)
		time.Sleep(10 * time.Microsecond)
	}
	policies := []Policy{DropOldest, DropNewest, CoalesceByKey, Block}
	var mu sync.Mutex
	var subs []*Subscriber
	for i, p := range policies {
		subs = append(subs, mustSub(t, ch, SubscriberConfig{Name: fmt.Sprint("stable", i), Outbox: 4, Policy: p, Deliver: deliver}))
	}
	ch.SetDegraded(true) // the stable BE subscribers sample and coalesce too

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				ch.Publish(Event{Topic: "t", Key: []string{"", "a", "b"}[i%3]})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			name := fmt.Sprint("churn", i)
			s, err := ch.Subscribe(SubscriberConfig{Name: name, Outbox: 2, Policy: policies[i%len(policies)], Deliver: deliver})
			if err != nil {
				t.Errorf("Subscribe(%s): %v", name, err)
				return
			}
			mu.Lock()
			subs = append(subs, s)
			mu.Unlock()
			time.Sleep(50 * time.Microsecond)
			ch.Unsubscribe(name)
		}
	}()
	wg.Wait()
	ch.Close()

	var offered uint64
	for _, s := range subs {
		st := s.Stats()
		if st.Offered != st.Delivered+st.Dropped || st.Depth != 0 {
			t.Errorf("subscriber %s after Close: %+v, want offered = delivered + dropped and depth 0", st.Name, st)
		}
		offered += st.Offered
	}
	snap := ch.Snapshot()
	if snap.Delivered+snap.Dropped != offered {
		t.Errorf("channel delivered %d + dropped %d != %d offered to its %d subscribers", snap.Delivered, snap.Dropped, offered, len(subs))
	}
	if n := uint64(pushed.Load()); n != snap.Delivered {
		t.Errorf("Deliver ran %d times, channel delivered %d", n, snap.Delivered)
	}
	if n := uint64(dropHooks.Load()); n != snap.Dropped {
		t.Errorf("drop hook fired %d times, channel dropped %d", n, snap.Dropped)
	}
	if snap.Dropped == 0 {
		t.Error("nothing dropped: the churn did not exercise the drop outcomes")
	}
}
