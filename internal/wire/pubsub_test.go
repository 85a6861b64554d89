package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/pubsub"
	"repro/internal/trace/telemetry"
)

// pubsubLoopback builds the full remote pub/sub topology over net.Pipe:
// a host server exposing a ChannelHost at "pubsub/chan", a consumer
// server whose push handler feeds the returned sink, and a publisher
// client dialed into the host. The host's push clients dial the
// consumer server through the NewPushClient hook, so the entire
// publish → admit → outbox → push → consume path runs socket-free.
func pubsubLoopback(t *testing.T, ch *pubsub.Channel, sink func(pubsub.Event)) (*Client, *ChannelHost) {
	t.Helper()
	open := make(chan struct{})
	close(open)
	return pubsubLoopbackGated(t, ch, sink, open)
}

// pubsubLoopbackGated is pubsubLoopback with a consumer that reads
// nothing from a push connection until gate closes — so pushes block in
// the host and events park in the subscriber's outbox. The gate has to
// open within the push client's request timeout (2s) of the first push.
func pubsubLoopbackGated(t *testing.T, ch *pubsub.Channel, sink func(pubsub.Event), gate <-chan struct{}) (*Client, *ChannelHost) {
	t.Helper()
	leakCheck(t)

	// One worker: pushes are oneway, so only a single-worker lane hands
	// them to the sink in the order they arrived (see ConsumerHandler).
	consumer, err := NewServer(ServerConfig{Name: "consumer", Lanes: []LaneConfig{{Workers: 1}}})
	if err != nil {
		t.Fatalf("consumer NewServer: %v", err)
	}
	consumer.Register("consumer/a", ConsumerHandler(sink))

	host, err := NewChannelHost(ch, ChannelHostConfig{
		NewPushClient: func(addr string) (*Client, error) {
			return NewClient(ClientConfig{
				Addr: addr,
				Dial: func() (net.Conn, error) {
					cliEnd, srvEnd := net.Pipe()
					go func() {
						<-gate
						consumer.ServeConn(srvEnd)
					}()
					return cliEnd, nil
				},
			})
		},
	})
	if err != nil {
		t.Fatalf("NewChannelHost: %v", err)
	}

	hostSrv, err := NewServer(ServerConfig{Name: "host"})
	if err != nil {
		t.Fatalf("host NewServer: %v", err)
	}
	hostSrv.Register("pubsub/chan", host)

	cli, err := NewClient(ClientConfig{
		Addr: "pipe",
		Dial: func() (net.Conn, error) {
			cliEnd, srvEnd := net.Pipe()
			go hostSrv.ServeConn(srvEnd)
			return cliEnd, nil
		},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	t.Cleanup(func() {
		checkOutboxLedger(t, ch)
		cli.Close()
		host.Close()
		ch.Close()
		hostSrv.Shutdown(2 * time.Second)
		consumer.Shutdown(2 * time.Second)
	})
	return cli, host
}

// checkOutboxLedger asserts that every subscriber still on the channel
// conserves events: each one offered was delivered, dropped or is still
// queued in its outbox.
func checkOutboxLedger(t *testing.T, ch *pubsub.Channel) {
	t.Helper()
	for _, s := range ch.Snapshot().Subscribers {
		if s.Offered != s.Delivered+s.Dropped+uint64(s.Depth) {
			t.Errorf("subscriber %s: offered %d != delivered %d + dropped %d + depth %d",
				s.Name, s.Offered, s.Delivered, s.Dropped, s.Depth)
		}
	}
}

// TestPubSubDuplicateSubscribeKeepsTheLiveOne: a second "subscribe" under
// a name in use is refused (BAD_PARAM minor 5) before the host touches the
// live subscription's push client — which it used to close, leaving the
// subscription pushing into a closed client with every event counted as
// delivered. After an unsubscribe the name is free again.
func TestPubSubDuplicateSubscribeKeepsTheLiveOne(t *testing.T) {
	ch := pubsub.New(pubsub.ChannelConfig{Name: "dup", Async: true})
	got := make(chan pubsub.Event, 64)
	cli, host := pubsubLoopback(t, ch, func(ev pubsub.Event) { got <- ev })

	spec := SubscribeSpec{
		Name: "s1", Addr: "consumer", ConsumerKey: "consumer/a",
		Topic: "camera/**", Priority: EFPriority, Outbox: 32,
	}
	if err := SubscribeRemote(cli, "pubsub/chan", spec, CallOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("SubscribeRemote: %v", err)
	}
	var exc *Exception
	err := SubscribeRemote(cli, "pubsub/chan", spec, CallOptions{Timeout: time.Second})
	if !errors.As(err, &exc) || exc.ID != giop.ExcBadParam || exc.Minor != 5 {
		t.Fatalf("duplicate subscribe = %v, want BAD_PARAM minor 5", err)
	}

	const n = 10
	for i := 0; i < n; i++ {
		ev := pubsub.Event{Topic: "camera/front", Priority: EFPriority, Payload: []byte{byte(i)}}
		if err := PublishRemote(cli, "pubsub/chan", ev, CallOptions{Timeout: time.Second}); err != nil {
			t.Fatalf("PublishRemote %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case ev := <-got:
			if len(ev.Payload) != 1 || ev.Payload[0] != byte(i) {
				t.Fatalf("push %d carried %v", i, ev.Payload)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("the first subscription stopped receiving: push %d of %d never arrived", i, n)
		}
	}
	host.mu.Lock()
	pushers, live := len(host.pushers), host.pushers["s1"] != nil && !host.pushers["s1"].closed.Load()
	host.mu.Unlock()
	if pushers != 1 || !live {
		t.Errorf("host holds %d push clients (s1 live: %v), want the one live client", pushers, live)
	}

	if err := UnsubscribeRemote(cli, "pubsub/chan", "s1", CallOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("UnsubscribeRemote: %v", err)
	}
	if err := SubscribeRemote(cli, "pubsub/chan", spec, CallOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("subscribe after unsubscribe: %v", err)
	}
}

// TestPubSubOverWire pins the remote path end to end: subscribe with a
// dial-back address, publish events carrying the ServiceEventContext,
// and verify the consumer reconstructs topic/key/seq/priority from the
// push while the host's stats round-trip as JSON.
func TestPubSubOverWire(t *testing.T) {
	ch := pubsub.New(pubsub.ChannelConfig{Name: "wiretest", Async: true})
	var mu sync.Mutex
	var got []pubsub.Event
	done := make(chan struct{}, 64)
	cli, _ := pubsubLoopback(t, ch, func(ev pubsub.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
		done <- struct{}{}
	})

	err := SubscribeRemote(cli, "pubsub/chan", SubscribeSpec{
		Name: "sub-a", Addr: "consumer", ConsumerKey: "consumer/a",
		Topic: "camera/**", Priority: EFPriority, Outbox: 32,
	}, CallOptions{Timeout: time.Second})
	if err != nil {
		t.Fatalf("SubscribeRemote: %v", err)
	}

	const n = 5
	for i := 0; i < n; i++ {
		ev := pubsub.Event{
			Topic: "camera/front", Key: "cam0", Priority: EFPriority,
			Payload: []byte(fmt.Sprintf("frame-%d", i)),
		}
		if err := PublishRemote(cli, "pubsub/chan", ev, CallOptions{Timeout: time.Second}); err != nil {
			t.Fatalf("PublishRemote %d: %v", i, err)
		}
	}
	// Filtered-out topic: no push expected.
	if err := PublishRemote(cli, "pubsub/chan", pubsub.Event{Topic: "bulk/noise"}, CallOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("PublishRemote noise: %v", err)
	}

	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatalf("timed out waiting for push %d", i)
		}
	}
	mu.Lock()
	if len(got) != n {
		t.Fatalf("consumer got %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev.Topic != "camera/front" || ev.Key != "cam0" {
			t.Errorf("event %d: topic=%q key=%q", i, ev.Topic, ev.Key)
		}
		if ev.Priority != EFPriority {
			t.Errorf("event %d: priority=%d, want EF", i, ev.Priority)
		}
		if ev.Seq == 0 {
			t.Errorf("event %d: channel seq did not propagate", i)
		}
		if string(ev.Payload) != fmt.Sprintf("frame-%d", i) {
			t.Errorf("event %d: payload=%q", i, ev.Payload)
		}
	}
	mu.Unlock()

	snap, err := FetchChannelStats(cli, "pubsub/chan", CallOptions{Timeout: time.Second})
	if err != nil {
		t.Fatalf("FetchChannelStats: %v", err)
	}
	if snap.Name != "wiretest" || snap.Published != n+1 {
		t.Errorf("stats = %+v, want name=wiretest published=%d", snap, n+1)
	}
	if len(snap.Subscribers) != 1 || snap.Subscribers[0].Name != "sub-a" {
		t.Errorf("stats subscribers = %+v", snap.Subscribers)
	}

	if err := UnsubscribeRemote(cli, "pubsub/chan", "sub-a", CallOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("UnsubscribeRemote: %v", err)
	}
	if err := PublishRemote(cli, "pubsub/chan", pubsub.Event{Topic: "camera/front"}, CallOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("publish after unsubscribe: %v", err)
	}
	select {
	case <-done:
		t.Error("push delivered after unsubscribe")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestPubSubAdmissionOverWire pins the refusal taxonomy: a saturated
// topic surfaces at the publisher as ErrOverload (TRANSIENT minor 2),
// exactly like lane admission.
func TestPubSubAdmissionOverWire(t *testing.T) {
	ch := pubsub.New(pubsub.ChannelConfig{Name: "sat", Async: true, Registry: telemetry.NewRegistry()})
	ch.Limit("bulk/**", 1, 3)
	cli, _ := pubsubLoopback(t, ch, func(pubsub.Event) {})

	var overloads int
	for i := 0; i < 6; i++ {
		err := PublishRemote(cli, "pubsub/chan", pubsub.Event{Topic: "bulk/data"}, CallOptions{Timeout: time.Second})
		if errors.Is(err, ErrOverload) {
			overloads++
		} else if err != nil {
			t.Fatalf("publish %d: unexpected %v", i, err)
		}
	}
	if overloads != 3 {
		t.Errorf("saw %d ErrOverload of 6 publishes at burst 3, want 3", overloads)
	}
	if v := ch.Registry().Counter("pubsub.refused", telemetry.L("topic", "bulk/data")).Value(); v != 3 {
		t.Errorf("pubsub.refused = %g, want 3", v)
	}
}

// TestSubscribeSpecRoundTrip pins the CDR codec both byte orders.
func TestSubscribeSpecRoundTrip(t *testing.T) {
	sp := SubscribeSpec{
		Name: "s1", Addr: "127.0.0.1:7001", ConsumerKey: "consumer/x",
		Topic: "a/**", MinPriority: 5, Priority: EFPriority,
		Outbox: 128, Policy: pubsub.CoalesceByKey, SampleEvery: 4,
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		body := EncodeSubscribe(sp, order)
		got, err := DecodeSubscribe(body)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if got != sp {
			t.Errorf("order %d: round trip = %+v, want %+v", order, got, sp)
		}
	}
}

// TestPubSubPushOwnership: each subscription's pushes share one encoding
// buffer, and the consumer reuses the names of the previous push. Events
// alternate long and short topics and keys, queue up behind a consumer
// that is not reading yet, and then go out back to back on two
// subscriptions at once. The consumer must see each event's exact
// descriptor, which fails if a buffer is overwritten before its frame is
// out or a reused name leaks into the next event; under -race it also
// fails if two subscriptions' pumps touch one buffer.
func TestPubSubPushOwnership(t *testing.T) {
	const n, subs = 48, 2
	topics := []string{"camera/front/left/raw/full-resolution/frames", "c"}
	keys := []string{"a-rather-long-coalescing-key-for-stream-zero", ""}
	want := func(i int) (topic, key string) { return topics[i%2], keys[i/2%2] }
	ch := pubsub.New(pubsub.ChannelConfig{Name: "own", Async: true})
	gate := make(chan struct{})
	got := make(chan pubsub.Event, n*subs)
	cli, _ := pubsubLoopbackGated(t, ch, func(ev pubsub.Event) { got <- ev }, gate)
	for s := 0; s < subs; s++ {
		err := SubscribeRemote(cli, "pubsub/chan", SubscribeSpec{
			Name: fmt.Sprint("s", s), Addr: "consumer", ConsumerKey: "consumer/a",
			Topic: "**", Priority: EFPriority, Outbox: n, Policy: pubsub.DropNewest,
		}, CallOptions{Timeout: time.Second})
		if err != nil {
			t.Fatalf("SubscribeRemote: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		topic, key := want(i)
		ev := pubsub.Event{Topic: topic, Key: key, Priority: EFPriority, Payload: []byte{byte(i)}}
		if err := PublishRemote(cli, "pubsub/chan", ev, CallOptions{Timeout: time.Second}); err != nil {
			t.Fatalf("PublishRemote %d: %v", i, err)
		}
	}
	close(gate)
	var seen [n]int
	for k := 0; k < n*subs; k++ {
		select {
		case ev := <-got:
			if len(ev.Payload) != 1 || int(ev.Payload[0]) >= n {
				t.Fatalf("a push carried payload %v", ev.Payload)
			}
			i := int(ev.Payload[0])
			seen[i]++
			if topic, key := want(i); ev.Topic != topic || ev.Key != key || ev.Seq != uint64(i+1) || ev.Priority != EFPriority {
				t.Fatalf("event %d arrived as topic %q key %q seq %d priority %d, want %q %q %d %d",
					i, ev.Topic, ev.Key, ev.Seq, ev.Priority, topic, key, i+1, EFPriority)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("push %d of %d never arrived", k, n*subs)
		}
	}
	for i, c := range seen {
		if c != subs {
			t.Errorf("event %d arrived %d times, want once per subscription (%d)", i, c, subs)
		}
	}
}

// TestEventNameOwnershipAcrossWorkers: a lane's workers share one
// handler's event names. Goroutines decoding different topics and keys at
// once must each get their own request's names.
func TestEventNameOwnershipAcrossWorkers(t *testing.T) {
	var names eventNames
	reqs := []*Request{
		{Contexts: []giop.ServiceContext{giop.EventContext("camera/front/left/raw", "cam0", 1, 0, 0, cdr.LittleEndian)}},
		{Contexts: []giop.ServiceContext{giop.EventContext("c", "", 2, 0, 0, cdr.BigEndian)}},
		{Contexts: []giop.ServiceContext{giop.EventContext("telemetry/engine", "a-much-longer-key", 3, 0, 0, cdr.LittleEndian)}},
	}
	want := []struct{ topic, key string }{{"camera/front/left/raw", "cam0"}, {"c", ""}, {"telemetry/engine", "a-much-longer-key"}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j := (w + i) % len(reqs)
				ev, exc := names.event(reqs[j])
				if exc != nil || ev.Topic != want[j].topic || ev.Key != want[j].key || ev.Seq != uint64(j+1) {
					t.Errorf("worker %d: request %d decoded as %q/%q seq %d (%v), want %q/%q seq %d",
						w, j, ev.Topic, ev.Key, ev.Seq, exc, want[j].topic, want[j].key, j+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConsumerRefusesMalformedPush: a push whose event context is missing
// or malformed is refused with BAD_PARAM (minor 1 and 2, as the channel
// host refuses such a publish), and the callback never sees it.
func TestConsumerRefusesMalformedPush(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	got := make(chan pubsub.Event, 4)
	srv.Register("consumer/a", ConsumerHandler(func(ev pubsub.Event) { got <- ev }))
	good := giop.EventContext("camera/front", "cam0", 1, EFPriority, 1, cdr.LittleEndian)
	for _, tc := range []struct {
		name  string
		ctxs  []giop.ServiceContext
		minor uint32
	}{
		{"missing", nil, 1},
		{"empty", []giop.ServiceContext{{ID: giop.ServiceEventContext}}, 2},
		{"truncated", []giop.ServiceContext{{ID: giop.ServiceEventContext, Data: good.Data[:len(good.Data)-3]}}, 2},
	} {
		// Two-way, so the refusal comes back to the test.
		_, err := cli.Invoke("consumer/a", "push", []byte("x"), CallOptions{Priority: EFPriority, Timeout: time.Second, contexts: tc.ctxs})
		var exc *Exception
		if !errors.As(err, &exc) || exc.ID != giop.ExcBadParam || exc.Minor != tc.minor {
			t.Errorf("%s event context: push returned %v, want BAD_PARAM minor %d", tc.name, err, tc.minor)
		}
	}
	if _, err := cli.Invoke("consumer/a", "push", []byte("x"), CallOptions{Priority: EFPriority, Timeout: time.Second, contexts: []giop.ServiceContext{good}}); err != nil {
		t.Fatalf("well-formed push: %v", err)
	}
	// Each push was answered before the next was sent, so the one event
	// the callback has seen must be the well-formed one.
	if ev := <-got; ev.Topic != "camera/front" || ev.Key != "cam0" || ev.Seq != 1 {
		t.Errorf("callback saw %q/%q seq %d, want the well-formed push", ev.Topic, ev.Key, ev.Seq)
	}
	if len(got) != 0 {
		t.Errorf("the callback saw %d more events: malformed pushes reached it", len(got))
	}
}
