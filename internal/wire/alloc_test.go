//go:build !race

package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"
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
	// The lower bound is deliberate. On the large path the small per-call
	// objects are what makes the goroutines assist the collector and end a
	// mark cycle themselves: with them pooled away (2.5 objects/op) the
	// mark phase stalls behind an off-CPU worker, the heap triples and
	// throughput falls — DESIGN §12, "Why the large path still allocates
	// its small objects". A change that gets below 12 must re-measure that
	// table, not lower this number.
	if objs < 12 || objs > 14 {
		t.Errorf("64 KiB echo allocates %.2f objects/op, want 12–14 (see the comment before lowering the floor)", objs)
	}

	// 64 B: exact-size frames, the batch buffers, and nothing from the
	// pool. Two collections empty a sync.Pool, so any Get below would
	// show as a New.
	news := 0
	oldNew := writeBufs.New
	writeBufs.New = func() any { news++; return oldNew() }
	defer func() { writeBufs.New = oldNew }()
	runtime.GC()
	runtime.GC()
	released := framesReleased.Load()
	_, objs = echoCost(t, cli, seededBytes(2, 64), 2000)
	t.Logf("64 B echo: %.2f objects/op", objs)
	if objs < 13.5 || objs > 14.5 {
		t.Errorf("64 B echo allocates %.2f objects/op, want 14", objs)
	}
	if news != 0 || framesReleased.Load() != released {
		t.Errorf("64 B echoes touched the frame pool: %d buffers made, %d frames released", news, framesReleased.Load()-released)
	}
}
