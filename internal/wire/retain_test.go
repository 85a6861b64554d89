package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/giop"
	"repro/internal/pubsub"
	"repro/internal/trace/telemetry"
)

// These tests hold the buffer-ownership rules (package comment) on live
// connections, under -race and with released frames poisoned
// (frame_test.go): whoever keeps req.Body by the rules — the FT reply
// cache, a handler that called Retain — keeps its bytes however much
// traffic follows; a write buffer belongs to one message from encode to
// the end of its Write.

func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestRetainFTReplayAfterChurn: an echo servant returns req.Body, so the
// FT reply cache holds a view of the request's frame. A thousand other
// requests later — FT-tagged ones the cache also keeps, on the same
// connection — a replay still gets the original bytes back.
func TestRetainFTReplayAfterChurn(t *testing.T) {
	var execs atomic.Int64
	srv, clients := ftLoopback(t, ServerConfig{}, 2)
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		execs.Add(1)
		return req.Body, nil
	}))

	original := seededBytes(1, 64<<10)
	ft := &FTRequest{Group: 7, Client: 99, Retention: 1}
	first, err := clients[0].Invoke("app/echo", "echo", original, CallOptions{ft: ft})
	if err != nil || !bytes.Equal(first, original) {
		t.Fatalf("original invoke: %d bytes, %v", len(first), err)
	}

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		body := make([]byte, 1+rng.Intn(8<<10))
		if i%50 == 0 {
			body = make([]byte, 64<<10)
		}
		rng.Read(body)
		opts := CallOptions{}
		if i%2 == 0 {
			opts.ft = &FTRequest{Group: 7, Client: 99, Retention: uint32(100 + i)}
		}
		got, err := clients[0].Invoke("app/echo", "echo", body, opts)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("churn request %d: %d bytes back for %d, %v", i, len(got), len(body), err)
		}
	}

	before := execs.Load()
	replay, err := clients[1].Invoke("app/echo", "echo", []byte("a retry's body is not echoed"), CallOptions{ft: ft})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !bytes.Equal(replay, original) {
		t.Fatalf("replay after 1000 requests returned %d bytes that are not the original %d", len(replay), len(original))
	}
	if execs.Load() != before {
		t.Fatal("the replay executed the servant")
	}
}

// TestRetainParkedPublishPayload: events published to a ChannelHost keep
// req.Body as their payload while they wait in a subscriber's outbox.
// With the subscriber blocked, one publish parks and a hundred different
// events follow it through the same connection; once the subscriber
// reads, every payload arrives as published.
func TestRetainParkedPublishPayload(t *testing.T) {
	const n = 101
	ch := pubsub.New(pubsub.ChannelConfig{Name: "parked", Async: true, Registry: telemetry.NewRegistry()})
	var mu sync.Mutex
	var got []pubsub.Event
	done := make(chan struct{}, n)
	gate := make(chan struct{})
	var open sync.Once
	release := func() { open.Do(func() { close(gate) }) }
	defer release()
	cli, _ := pubsubLoopbackGated(t, ch, func(ev pubsub.Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
		done <- struct{}{}
	}, gate)

	if err := SubscribeRemote(cli, "pubsub/chan", SubscribeSpec{
		Name: "blocked", Addr: "consumer", ConsumerKey: "consumer/a",
		Topic: "camera/**", Priority: EFPriority, Outbox: 2 * n,
	}, CallOptions{Timeout: time.Second}); err != nil {
		t.Fatalf("SubscribeRemote: %v", err)
	}

	payloads := make([][]byte, n)
	for i := range payloads {
		size := 1 + (i*977)%(8<<10)
		if i == 0 {
			size = 64 << 10
		}
		payloads[i] = seededBytes(int64(10+i), size)
		ev := pubsub.Event{Topic: "camera/front", Priority: EFPriority, Payload: payloads[i]}
		if err := PublishRemote(cli, "pubsub/chan", ev, CallOptions{Timeout: 2 * time.Second}); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	mu.Lock()
	if len(got) != 0 {
		t.Fatalf("%d events reached the consumer while it was blocked", len(got))
	}
	mu.Unlock()
	release()
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for push %d of %d", i, n)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, ev := range got {
		if !bytes.Equal(ev.Payload, payloads[i]) {
			t.Fatalf("event %d arrived with %d bytes that are not the %d published", i, len(ev.Payload), len(payloads[i]))
		}
	}
}

// TestAliasConcurrentCallersKeepOwnBytes: 32 callers with distinct 64 KiB
// bodies share one connection in each direction, so their requests and
// replies are encoded concurrently into pooled write buffers and written
// one after another, while four workers borrow request frames from, and
// return them to, that same pool. Each must get its own bytes back, every
// round, and every frame goes back once.
func TestAliasConcurrentCallersKeepOwnBytes(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{
		Lanes: []LaneConfig{{Priority: 0, Workers: 4, QueueLimit: 64}},
	}, ClientConfig{})
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) { return req.Body, nil }))

	const callers, rounds = 32, 8
	before := framesReleased.Load()
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			body := seededBytes(int64(1000+c), 64<<10)
			want := append([]byte(nil), body...)
			for r := 0; r < rounds; r++ {
				got, err := cli.Invoke("app/echo", "echo", body, CallOptions{Timeout: 10 * time.Second})
				if err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", c, r, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("caller %d round %d: the reply is not this caller's body", c, r)
					return
				}
				if !bytes.Equal(body, want) {
					errs <- fmt.Errorf("caller %d round %d: Invoke changed the caller's body", c, r)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	releasedSince(t, before, callers*rounds)
	if dials := cli.Registry().Counter("wire.client.dials", telemetry.L("band", "0")).Value(); dials != 1 {
		t.Errorf("dials = %g, want 1 (the callers must share a connection)", dials)
	}
}

// TestWritePoolDoesNotRetainLargeBuffers: one message near the size cap
// grows a write buffer on each side to megabytes; neither may go back to
// the pool, or it would pin that memory for as long as it circulates, and
// neither connection's writer may have taken it into its batch.
func TestWritePoolDoesNotRetainLargeBuffers(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) { return req.Body, nil }))

	big := seededBytes(3, giop.DefaultMaxMessage-1024)
	got, err := cli.Invoke("app/echo", "echo", big, CallOptions{Timeout: 30 * time.Second})
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("echo of a %d-byte body: %d bytes, %v", len(big), len(got), err)
	}
	// Small messages afterwards are served from small buffers again.
	if _, err := cli.Invoke("app/echo", "echo", []byte("small"), CallOptions{}); err != nil {
		t.Fatal(err)
	}
	held := make([]*[]byte, 64)
	for i := range held {
		held[i] = getWriteBuf()
		if c := cap(*held[i]); c > maxPooledWrite {
			t.Errorf("the pool handed out a %d-byte buffer after one large message (cap on pooled buffers: %d)", c, maxPooledWrite)
		}
	}
	for _, b := range held {
		putWriteBuf(b)
	}
	writers := []*connWriter{&cli.bands[0].conn.connWriter}
	srv.mu.Lock()
	for c := range srv.conns {
		writers = append(writers, &c.connWriter)
	}
	srv.mu.Unlock()
	for _, w := range writers {
		w.wmu.Lock()
		w.mu.Lock()
		if cap(w.pend) > maxPooledWrite || cap(w.out) > maxPooledWrite {
			t.Errorf("a connection keeps %d- and %d-byte batch buffers after one large message", cap(w.pend), cap(w.out))
		}
		w.mu.Unlock()
		w.wmu.Unlock()
	}
}

// TestTelemetrySeriesAppearOnFirstIncrement: the per-band and per-lane
// handles are cached, but resolved no earlier than the first increment,
// so /metrics lists a series from its first event as it always did.
func TestTelemetrySeriesAppearOnFirstIncrement(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	echoHandler(srv)
	hot := []struct {
		reg *telemetry.Registry
		key string
	}{
		{cli.Registry(), "wire.client.requests{band=0,outcome=ok}"},
		{srv.Registry(), "wire.server.requests{lane=0}"},
		{srv.Registry(), "wire.server.outcomes{lane=0,outcome=ok}"},
		// One caller at a time: every message is a flush of its own.
		{cli.Registry(), "wire.client.frames{band=0}"},
		{cli.Registry(), "wire.client.flushes{band=0}"},
		{srv.Registry(), "wire.server.frames{lane=0}"},
		{srv.Registry(), "wire.server.flushes{lane=0}"},
	}
	rtt := "wire.client.rtt_ms{band=0}"
	for _, h := range hot {
		if h.reg.CounterByKey(h.key) != nil {
			t.Errorf("%s exists before any request", h.key)
		}
	}
	if cli.Registry().HistogramByKey(rtt) != nil {
		t.Errorf("%s exists before any request", rtt)
	}
	for i := 0; i < 3; i++ {
		if _, err := cli.Invoke("app/echo", "echo", []byte("x"), CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hot {
		// (A lane books its frames after the flush that delivered them, so
		// the third reply can be here before its count.)
		eventually(t, h.key+" to reach 3 after 3 requests", func() bool {
			c := h.reg.CounterByKey(h.key)
			return c != nil && c.Value() == 3
		})
	}
	if h := cli.Registry().HistogramByKey(rtt); h == nil || h.Summary().N != 3 {
		t.Errorf("%s after 3 requests: %v", rtt, h)
	}
	// /debug/qos shows the same counts.
	if band := cli.Snapshot().Bands[0]; band.Frames != 3 || band.Flushes != 3 {
		t.Errorf("band snapshot: %d frames in %d flushes, want 3 in 3", band.Frames, band.Flushes)
	}
	if lane := srv.Snapshot().Lanes[0]; lane.Frames != 3 || lane.Flushes != 3 {
		t.Errorf("lane snapshot: %d frames in %d flushes, want 3 in 3", lane.Frames, lane.Flushes)
	}
}
