//go:build !race

package wire

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/pubsub"
)

// echoCost runs n closed-loop echoes of body and returns what one cost the
// whole process — client and server, as qosperf's bytes_per_op and
// allocs_per_op count it.
func echoCost(t *testing.T, cli *Client, body []byte, n int) (bytesPerOp, objectsPerOp float64) {
	t.Helper()
	echo := func() {
		got, err := cli.Invoke("app/echo", "echo", body, CallOptions{Priority: EFPriority, Timeout: 5 * time.Second})
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("echo of %d bytes: %d bytes back, %v", len(body), len(got), err)
		}
	}
	for i := 0; i < 200; i++ {
		echo()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		echo()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestAllocBudgetEcho pins what an echo over loopback TCP allocates, in
// bytes on the large path and in objects on both.
func TestAllocBudgetEcho(t *testing.T) {
	srv, cli := tcpLoopback(t, ServerConfig{})
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) { return req.Body, nil }))

	// 64 KiB: one caller-owned reply frame (73 728 B) plus the small
	// objects; the request frame and both write buffers are recycled.
	// Before request frames were borrowed this was 150 KB.
	b, objs := echoCost(t, cli, seededBytes(1, 64<<10), 2000)
	t.Logf("64 KiB echo: %.0f B/op, %.2f objects/op", b, objs)
	if b > 85e3 {
		t.Errorf("64 KiB echo allocates %.0f B/op, budget 85 000", b)
	}
	// The lower bound is deliberate. On the large path the client's small
	// per-call objects — the call record, its channel and timer, the
	// decoded giop.Reply — and the lane worker's queued giop.Reply are
	// what makes those goroutines assist the collector and end a mark
	// cycle themselves: with them pooled away (2.5 objects/op) the mark
	// phase stalls behind an off-CPU worker, the heap triples and
	// throughput falls; decoding the client's large reply in place put
	// echo_large's rss_mb above 13.8 MB in 11 of 24 runs, against none of
	// 31 without — DESIGN §12, "Why the large path still allocates its
	// small objects". The server read loop's
	// objects are not load-bearing and are gone. A change that gets below
	// 11 must re-measure that table, not lower this number.
	if objs < 11 || objs > 12 {
		t.Errorf("64 KiB echo allocates %.2f objects/op, want 11–12 (see the comment before lowering the floor)", objs)
	}

	// 64 B: the two exact-size frames, the request's wire.Request, its
	// context slice and its object key, and nothing from the frame pool.
	// The call record is recycled, both giop messages are decoded on a
	// read loop's stack and the operation name repeats. Two collections empty a sync.Pool, so
	// any Get of a frame buffer below would show as a New.
	news := 0
	oldNew := writeBufs.New
	writeBufs.New = func() any { news++; return oldNew() }
	defer func() { writeBufs.New = oldNew }()
	runtime.GC()
	runtime.GC()
	released := framesReleased.Load()
	_, objs = echoCost(t, cli, seededBytes(2, 64), 2000)
	t.Logf("64 B echo: %.2f objects/op", objs)
	if objs < 4.5 || objs > 5.5 {
		t.Errorf("64 B echo allocates %.2f objects/op, want 5", objs)
	}
	if news != 0 || framesReleased.Load() != released {
		t.Errorf("64 B echoes touched the frame pool: %d buffers made, %d frames released", news, framesReleased.Load()-released)
	}
}

// pushRequest is a push invocation as the consumer's server hands it to
// the handler, carrying the event context of (topic, key, seq).
func pushRequest(topic, key string, seq uint64) *Request {
	return &Request{
		Operation: "push",
		Body:      []byte("payload"),
		Contexts:  []giop.ServiceContext{giop.EventContext(topic, key, seq, EFPriority, 1, cdr.LittleEndian)},
	}
}

// TestAllocBudgetEventNames pins what decoding a push's event descriptor
// costs the consumer's handler: a topic and key it saw on the previous
// push are reused, so the same names again allocate nothing; names that
// change on every push cost at most two strings each, as decoding them
// always did.
func TestAllocBudgetEventNames(t *testing.T) {
	var got pubsub.Event
	h := ConsumerHandler(func(ev pubsub.Event) { got = ev })
	serve := func(req *Request) {
		if _, err := h(req); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	a := pushRequest("camera/front", "cam0", 1)
	b := pushRequest("telemetry/engine/left", "sensor-7", 2)

	serve(a)
	if allocs := testing.AllocsPerRun(500, func() { serve(a) }); allocs != 0 {
		t.Errorf("a push repeating the last topic and key allocates %v times, want 0", allocs)
	}
	if got.Topic != "camera/front" || got.Key != "cam0" || got.Seq != 1 {
		t.Errorf("handler saw %q/%q seq %d, want camera/front/cam0 seq 1", got.Topic, got.Key, got.Seq)
	}
	var next *Request
	alternate := func() {
		if next == a {
			next = b
		} else {
			next = a
		}
		serve(next)
	}
	if allocs := testing.AllocsPerRun(500, alternate); allocs > 2 {
		t.Errorf("pushes alternating two topics and keys allocate %v times each, want at most 2", allocs)
	}
	if want := map[*Request]string{a: "camera/front", b: "telemetry/engine/left"}[next]; got.Topic != want {
		t.Errorf("after alternating, handler saw topic %q, want %q", got.Topic, want)
	}
}

// TestAllocBudgetPush pins a ChannelHost subscription's push: encoding the
// event context into the subscription's reused buffers allocates nothing,
// so the push costs exactly a oneway Invoke with that context.
func TestAllocBudgetPush(t *testing.T) {
	leakCheck(t)
	cli, err := NewClient(ClientConfig{Addr: "pipe", Bands: pushBands, Dial: func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		go func() {
			defer srvEnd.Close()
			_, _ = io.Copy(io.Discard, srvEnd) // ends when the client closes its end
		}()
		return cliEnd, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)

	ev := pubsub.Event{Topic: "camera/front", Key: "cam0", Priority: EFPriority, Seq: 7, Payload: make([]byte, 64)}
	ctxs := []giop.ServiceContext{giop.EventContext(ev.Topic, ev.Key, ev.Seq, ev.Priority, 0, cdr.LittleEndian)}
	invoke := func() {
		if _, err := cli.Invoke("consumer/a", "push", ev.Payload, CallOptions{Priority: ev.Priority, Oneway: true, contexts: ctxs}); err != nil {
			t.Fatalf("oneway Invoke: %v", err)
		}
	}
	var buf pushBuf
	push := func() {
		ev.Seq++
		buf.push(cli, "consumer/a", ev, CallOptions{Oneway: true}, nil)
	}
	invoke()
	push()
	base := testing.AllocsPerRun(1000, invoke)
	pushed := testing.AllocsPerRun(1000, push)
	t.Logf("oneway Invoke %.0f allocations, subscription push %.0f", base, pushed)
	if pushed > base {
		t.Errorf("a subscription's push allocates %v times, a oneway Invoke %v: the push adds its own", pushed, base)
	}
}
