package wire

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/trace/telemetry"
)

// Frame lifetime, made observable. The frame of a large request is borrowed
// from the write pool until the request is settled (package comment), so a
// use after release would normally show only when another connection
// happened to read into the same buffer. For the whole test binary the
// release hook fills every frame with 0xDB as it goes back: whatever still
// looks at one reads poison, at once, in every test of the package.
var (
	framesReleased atomic.Int64
	// doubleReleases counts frames released while still poisoned. Every
	// borrowed frame was read off a connection, so it starts with the GIOP
	// magic; one that starts with poison went back twice with no read
	// between — the way one buffer would reach two connections.
	doubleReleases atomic.Int64
)

func init() {
	releaseHook = func(frame []byte) {
		if bytes.Equal(frame[:4], []byte{0xDB, 0xDB, 0xDB, 0xDB}) {
			doubleReleases.Add(1)
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		framesReleased.Add(1)
	}
}

// releasedSince waits for the release count to have grown by want since
// before (a reply can reach its caller before its worker gets to the
// release), and fails on one release more, or on any double release.
func releasedSince(t *testing.T, before, want int64) {
	t.Helper()
	eventually(t, "the frames to be released", func() bool { return framesReleased.Load()-before >= want })
	time.Sleep(5 * time.Millisecond)
	if got := framesReleased.Load() - before; got != want {
		t.Errorf("%d frames released, want %d", got, want)
	}
	if n := doubleReleases.Load(); n != 0 {
		t.Errorf("%d frames were released twice", n)
	}
}

func tcpLoopback(t *testing.T, scfg ServerConfig) (*Server, *Client) {
	t.Helper()
	leakCheck(t)
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Shutdown(2 * time.Second)
		checkLedger(t, srv)
	})
	return srv, cli
}

// TestFrameEchoRepliesIntact: a servant that does not Retain and returns
// req.Body gets its reply encoded before the frame is released, over a
// pipe and over TCP, and every large request's frame goes back exactly
// once; small requests never borrow.
func TestFrameEchoRepliesIntact(t *testing.T) {
	planes := map[string]func(*testing.T) (*Server, *Client){
		"pipe": func(t *testing.T) (*Server, *Client) { return loopback(t, ServerConfig{}, ClientConfig{}) },
		"tcp":  func(t *testing.T) (*Server, *Client) { return tcpLoopback(t, ServerConfig{}) },
	}
	for name, plane := range planes {
		t.Run(name, func(t *testing.T) {
			srv, cli := plane(t)
			srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) { return req.Body, nil }))
			before := framesReleased.Load()
			const rounds = 200
			for i := 0; i < rounds; i++ {
				for _, size := range []int{64 << 10, 64} {
					body := seededBytes(int64(i), size)
					got, err := cli.Invoke("app/echo", "echo", body, CallOptions{Timeout: 5 * time.Second})
					if err != nil || !bytes.Equal(got, body) {
						t.Fatalf("round %d, %d bytes: %d bytes back, %v", i, size, len(got), err)
					}
				}
			}
			releasedSince(t, before, rounds)
		})
	}
}

// TestFrameRetainKeepsBytes: a handler that calls Retain keeps its bytes
// through a thousand further requests; one that keeps req.Body without it
// reads poison — which is what tells this test the hook is on.
func TestFrameRetainKeepsBytes(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	var mu sync.Mutex
	var retained, kept []byte
	srv.Register("app/retain", HandlerFunc(func(req *Request) ([]byte, error) {
		req.Retain()
		mu.Lock()
		retained = req.Body
		mu.Unlock()
		return nil, nil
	}))
	srv.Register("app/keep", HandlerFunc(func(req *Request) ([]byte, error) {
		mu.Lock()
		kept = req.Body
		mu.Unlock()
		return nil, nil
	}))
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) { return req.Body, nil }))

	original := seededBytes(5, 64<<10)
	before := framesReleased.Load()
	for _, key := range []string{"app/retain", "app/keep"} {
		if _, err := cli.Invoke(key, "put", original, CallOptions{Timeout: 5 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		body := seededBytes(int64(100+i), 8<<10)
		if got, err := cli.Invoke("app/echo", "echo", body, CallOptions{Timeout: 5 * time.Second}); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("request %d: %d bytes back, %v", i, len(got), err)
		}
	}
	releasedSince(t, before, 1001) // every frame but the retained one
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(retained, original) {
		t.Error("the body a handler retained changed under later traffic")
	}
	if bytes.Equal(kept, original) {
		t.Error("a body kept without Retain is intact: the frame was not recycled, or the poison hook is off")
	}
}

// TestFrameReleasedAtMostOnce: behind a parked worker, large requests of
// every kind the worker can meet — executed, shed, cancelled, oneway, with
// an FT context — and one the read loop refuses. Each frame that reached
// the worker without an FT context is released once; the refused one and
// the FT one are left to the collector; none is released twice.
func TestFrameReleasedAtMostOnce(t *testing.T) {
	g := newGatedServer(t, 1, 5)
	a := attachRaw(t, g.Server, &g.wg)
	defer a.nc.Close()
	large := func(id uint32, ctxs ...giop.ServiceContext) *giop.Request {
		m := rawRequest(id, "echo", ctxs...)
		m.Body = seededBytes(int64(id), 64<<10)
		return m
	}
	past := giop.DeadlineContext(time.Now().Add(-time.Second).UnixNano(), cdr.BigEndian)
	before := framesReleased.Load()

	a.send(rawRequest(1, "gate")) // small: not borrowed
	g.awaitGate(t)
	a.send(large(2))
	a.send(large(3, past))
	a.send(large(4))
	a.send(&giop.CancelRequest{RequestID: 4})
	oneway := large(5)
	oneway.ResponseExpected = false
	a.send(oneway)
	a.send(large(6, giop.FTRequestContext(7, 7, 1, cdr.BigEndian)))
	a.send(large(7)) // the queue holds five
	if rep, ok := a.next().(*giop.Reply); !ok || rep.RequestID != 7 || rep.Status != giop.StatusSystemException {
		t.Fatalf("the overflowing request was answered with %#v, want a refusal", rep)
	}
	if n := framesReleased.Load() - before; n != 0 {
		t.Fatalf("%d frames released while every request was still queued", n)
	}
	g.tokens <- struct{}{}

	want := map[uint32][]byte{1: []byte("body-1"), 2: large(2).Body, 3: nil, 6: large(6).Body}
	for len(want) > 0 {
		rep, ok := a.next().(*giop.Reply)
		if !ok {
			t.Fatalf("replies still owed: %d", len(want))
		}
		body, owed := want[rep.RequestID]
		if !owed {
			t.Fatalf("unexpected reply %d", rep.RequestID)
		}
		if body != nil && !bytes.Equal(rep.Body, body) {
			t.Errorf("reply %d is not the request's body", rep.RequestID)
		}
		delete(want, rep.RequestID)
	}
	releasedSince(t, before, 4) // 2 executed, 3 shed, 4 cancelled, 5 oneway
}

// TestFramePoolDoesNotKeepHugeFrames is the inbound twin of
// TestWritePoolDoesNotRetainLargeBuffers: a request frame above
// maxPooledWrite is not borrowed at all — it is allocated at its size and
// left to the collector like a small one.
func TestFramePoolDoesNotKeepHugeFrames(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) { return req.Body, nil }))
	before := framesReleased.Load()
	big := seededBytes(9, 2*maxPooledWrite)
	if got, err := cli.Invoke("app/echo", "echo", big, CallOptions{Timeout: 30 * time.Second}); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("echo of a %d-byte body: %d bytes, %v", len(big), len(got), err)
	}
	// One pooled frame follows it through the same worker, so the count
	// below is final when it is read.
	fits := seededBytes(10, 64<<10)
	if got, err := cli.Invoke("app/echo", "echo", fits, CallOptions{Timeout: 5 * time.Second}); err != nil || !bytes.Equal(got, fits) {
		t.Fatalf("echo after the huge one: %d bytes, %v", len(got), err)
	}
	releasedSince(t, before, 1)
	held := make([]*[]byte, 64)
	for i := range held {
		held[i] = getWriteBuf()
		if c := cap(*held[i]); c > maxPooledWrite {
			t.Errorf("the pool handed out a %d-byte buffer after one huge request (cap on pooled buffers: %d)", c, maxPooledWrite)
		}
	}
	for _, b := range held {
		putWriteBuf(b)
	}
}

// TestCancelSetStaysBounded: a CancelRequest that arrives after its
// request was dequeued is never looked up. Ten thousand of them leave the
// connection's set no larger than maxCancelled, and a cancel that arrives
// in time still skips its queued request.
func TestCancelSetStaysBounded(t *testing.T) {
	g := newGatedServer(t, 1, 8)
	a := attachRaw(t, g.Server, &g.wg)
	defer a.nc.Close()
	const late = 10000
	for id := uint32(1); id <= late; id++ {
		a.send(&giop.CancelRequest{RequestID: 1<<20 + id}) // nothing by these ids is queued
	}
	waitCounter(t, g.Registry(), "wire.server.cancels", late)
	var conn *serverConn
	g.mu.Lock()
	for c := range g.conns {
		conn = c
	}
	g.mu.Unlock()
	size := 0
	conn.cancelled.Range(func(_, _ any) bool { size++; return true })
	if size > maxCancelled {
		t.Errorf("%d cancelled ids kept after %d late cancels, bound %d", size, late, maxCancelled)
	}

	a.send(rawRequest(1, "gate"))
	g.awaitGate(t)
	a.send(rawRequest(2, "echo"))
	a.send(&giop.CancelRequest{RequestID: 2})
	a.send(rawRequest(3, "echo"))
	waitCounter(t, g.Registry(), "wire.server.cancels", late+1)
	g.tokens <- struct{}{}
	for _, id := range []uint32{1, 3} {
		if rep, ok := a.next().(*giop.Reply); !ok || rep.RequestID != id {
			t.Fatalf("got %#v, want the reply to request %d", rep, id)
		}
	}
	waitCounter(t, g.Registry(), "wire.server.outcomes", 1, telemetry.L("lane", "0"), telemetry.L("outcome", "cancelled"))
	if n := g.echoes.Load(); n != 1 {
		t.Errorf("the echo servant ran %d times, want 1 (request 2 was cancelled in time)", n)
	}
}
