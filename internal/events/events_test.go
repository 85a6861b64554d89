package events

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

const (
	typeSensor Type = 1
	typeAlarm  Type = 2
	typeLog    Type = 3
)

func newHostChannel(t *testing.T) (*sim.Kernel, *rtos.Host, *Channel) {
	t.Helper()
	k := sim.NewKernel(1)
	h := rtos.NewHost(k, "h", rtos.HostConfig{Quantum: time.Millisecond})
	ch, err := NewChannel(h, rtcorba.NewMappingManager())
	if err != nil {
		t.Fatal(err)
	}
	return k, h, ch
}

func TestTypeFiltering(t *testing.T) {
	k, _, ch := newHostChannel(t)
	var sensor, alarm, all int
	ch.Subscribe([]Type{typeSensor}, 0, func(*rtos.Thread, Event) { sensor++ })
	ch.Subscribe([]Type{typeAlarm}, 0, func(*rtos.Thread, Event) { alarm++ })
	ch.Subscribe(nil, 0, func(*rtos.Thread, Event) { all++ })

	ch.Push(Event{Type: typeSensor})
	ch.Push(Event{Type: typeSensor})
	ch.Push(Event{Type: typeAlarm})
	ch.Push(Event{Type: typeLog})
	k.RunUntil(time.Second)
	if sensor != 2 || alarm != 1 || all != 4 {
		t.Fatalf("sensor=%d alarm=%d all=%d", sensor, alarm, all)
	}
	if ch.Pushed() != 4 || ch.Dispatched() != 7 {
		t.Fatalf("pushed=%d dispatched=%d", ch.Pushed(), ch.Dispatched())
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	k, _, ch := newHostChannel(t)
	n := 0
	sub := ch.Subscribe(nil, 0, func(*rtos.Thread, Event) { n++ })
	ch.Push(Event{Type: typeSensor})
	k.RunUntil(time.Second)
	sub.Cancel()
	ch.Push(Event{Type: typeSensor})
	k.RunUntil(2 * time.Second)
	if n != 1 {
		t.Fatalf("delivered %d after cancel", n)
	}
	if sub.Delivered != 1 {
		t.Fatalf("sub.Delivered = %d", sub.Delivered)
	}
}

func TestHighPriorityEventsPreempt(t *testing.T) {
	// A flood of low-priority events must not delay an alarm: the alarm
	// rides a separate lane.
	k, _, ch := newHostChannel(t)
	var alarmAt sim.Time
	ch.Subscribe([]Type{typeLog}, 0, func(th *rtos.Thread, _ Event) {
		th.Compute(10 * time.Millisecond)
	})
	ch.Subscribe([]Type{typeAlarm}, 0, func(th *rtos.Thread, _ Event) {
		alarmAt = th.Now()
	})
	for i := 0; i < 50; i++ {
		ch.Push(Event{Type: typeLog, Priority: 100})
	}
	k.After(5*time.Millisecond, func() {
		ch.Push(Event{Type: typeAlarm, Priority: 30000})
	})
	k.RunUntil(5 * time.Second)
	if alarmAt == 0 {
		t.Fatal("alarm never delivered")
	}
	if alarmAt > 20*time.Millisecond {
		t.Fatalf("alarm delivered at %v behind a low-priority flood", alarmAt)
	}
}

func TestSubscriptionPriorityFloor(t *testing.T) {
	// A consumer with a priority floor gets even low-priority events
	// dispatched urgently.
	k, _, ch := newHostChannel(t)
	var at sim.Time
	ch.Subscribe([]Type{typeLog}, 0, func(th *rtos.Thread, _ Event) {
		th.Compute(10 * time.Millisecond)
	})
	ch.Subscribe([]Type{typeSensor}, 30000, func(th *rtos.Thread, _ Event) {
		at = th.Now()
	})
	for i := 0; i < 50; i++ {
		ch.Push(Event{Type: typeLog, Priority: 100})
	}
	ch.Push(Event{Type: typeSensor, Priority: 100}) // low-priority event, urgent consumer
	k.RunUntil(5 * time.Second)
	if at == 0 || at > 20*time.Millisecond {
		t.Fatalf("floored consumer served at %v", at)
	}
}

func TestEventMarshalRoundTrip(t *testing.T) {
	prop := func(typ uint32, prio int16, data []byte) bool {
		if prio < 0 {
			prio = -prio
		}
		ev := Event{Type: Type(typ), Priority: rtcorba.Priority(prio), Data: data, Published: 12345}
		got, err := UnmarshalEvent(MarshalEvent(ev))
		if err != nil {
			return false
		}
		return got.Type == ev.Type && got.Priority == ev.Priority &&
			got.Published == ev.Published && bytes.Equal(got.Data, ev.Data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {1}, {1, 2, 3, 4, 5}} {
		if _, err := UnmarshalEvent(data); err == nil {
			t.Errorf("accepted %v", data)
		}
	}
}

func TestRemoteSupplierAndConsumer(t *testing.T) {
	// supplier host --ORB--> channel host --ORB--> consumer host.
	k := sim.NewKernel(1)
	n := netsim.New(k)
	supN := n.AddHost("supplier")
	chanN := n.AddHost("channel")
	conN := n.AddHost("consumer")
	cfg := netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond}
	n.ConnectSym(supN, chanN, cfg)
	n.ConnectSym(chanN, conN, netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond})

	supH := rtos.NewHost(k, "supplier", rtos.HostConfig{})
	chanH := rtos.NewHost(k, "channel", rtos.HostConfig{})
	conH := rtos.NewHost(k, "consumer", rtos.HostConfig{})
	supORB := orb.New("sup", supH, n, supN, orb.Config{})
	chanORB := orb.New("chan", chanH, n, chanN, orb.Config{})
	conORB := orb.New("con", conH, n, conN, orb.Config{})

	// Remote consumer: a servant counting pushes.
	var got []Event
	conPOA, _ := conORB.CreatePOA("app", orb.POAConfig{})
	conRef, _ := conPOA.Activate("sink", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		ev, err := UnmarshalEvent(req.Body)
		if err != nil {
			return nil, err
		}
		got = append(got, ev)
		return nil, nil
	}))

	ch, err := NewChannel(chanH, rtcorba.NewMappingManager())
	if err != nil {
		t.Fatal(err)
	}
	ch.SubscribeRemote([]Type{typeAlarm}, 20000, chanORB, conRef)
	chRef, err := Activate(chanORB, "main", ch)
	if err != nil {
		t.Fatal(err)
	}

	supH.Spawn("supplier", 50, func(th *rtos.Thread) {
		for i := 0; i < 5; i++ {
			ev := Event{Type: typeAlarm, Priority: 20000, Data: []byte{byte(i)}}
			if err := PushRemote(supORB, th, chRef, ev); err != nil {
				t.Errorf("push %d: %v", i, err)
			}
			th.Sleep(10 * time.Millisecond)
		}
		// An unsubscribed type must not reach the consumer.
		_ = PushRemote(supORB, th, chRef, Event{Type: typeLog})
	})
	k.RunUntil(5 * time.Second)
	if len(got) != 5 {
		t.Fatalf("consumer received %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.Type != typeAlarm || len(ev.Data) != 1 || ev.Data[0] != byte(i) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}
