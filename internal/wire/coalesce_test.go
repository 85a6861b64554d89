package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/trace/telemetry"
)

// The coalescing writer (connWriter) and its flush points: what is queued
// reaches the peer whole, once, in order, and soon; a failure costs one
// connection, once; and the steady state allocates nothing.

// integrityBody is the body of sender s's n-th frame: both numbers, then
// bytes only that pair produces.
func integrityBody(s, n uint32, size int) []byte {
	b := make([]byte, 8+size)
	binary.BigEndian.PutUint32(b, s)
	binary.BigEndian.PutUint32(b[4:], n)
	for i := range b[8:] {
		b[8+i] = byte(uint32(i)*7 + s*31 + n)
	}
	return b
}

// integritySize draws a frame's size: mostly small (the coalesced path),
// some around largeFrame, a few up to 200 KiB (written on their own).
func integritySize(rng *rand.Rand) int {
	switch p := rng.Intn(100); {
	case p < 80:
		return rng.Intn(256)
	case p < 95:
		return largeFrame - 64 + rng.Intn(128)
	default:
		return rng.Intn(200 << 10)
	}
}

// trickleReader hands out a stream in 1-byte and other short reads.
type trickleReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (t *trickleReader) Read(p []byte) (int, error) {
	max := []int{1, 1, 3, 64, 1500, 32 << 10}[t.rng.Intn(6)]
	if len(p) > max {
		p = p[:max]
	}
	return t.r.Read(p)
}

func pipePair(t *testing.T) (net.Conn, net.Conn) { return net.Pipe() }

func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.Fatal("accept failed")
	}
	return a, b
}

// TestWriterStreamIntegrity: 32 goroutines push 200 frames each, of seeded
// sizes from 0 B to 200 KiB, through one connWriter — some flushing every
// frame, some holding a few first, as lane workers do — while the reader
// trickles. Every frame must come out whole, exactly once, and each
// sender's frames in the order it queued them.
func TestWriterStreamIntegrity(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair func(*testing.T) (net.Conn, net.Conn)
	}{{"pipe", pipePair}, {"tcp", tcpPair}} {
		t.Run(tc.name, func(t *testing.T) {
			const senders, frames = 32, 200
			wr, rd := tc.pair(t)
			defer wr.Close()
			defer rd.Close()
			w := &connWriter{nc: wr, failed: func(err error) { t.Errorf("write failed: %v", err) }}
			deadline := time.Now().Add(time.Minute)

			var wg sync.WaitGroup
			for s := uint32(0); s < senders; s++ {
				wg.Add(1)
				go func(s uint32) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s) + 1))
					var last uint64
					held := 0
					for n := uint32(0); n < frames; n++ {
						body := integrityBody(s, n, integritySize(rng))
						req := giop.Request{RequestID: n, ObjectKey: []byte("k"), Operation: "op", Body: body}
						order := cdr.ByteOrder(s % 2) // both byte orders share the stream
						last, _ = w.queue(len(body), func(dst []byte) []byte { return req.AppendTo(dst, order) }, deadline)
						if held++; held > int(s%4) || n == frames-1 {
							if s%3 == 0 {
								runtime.Gosched()
							}
							if _, err := w.flush(last, deadline); err != nil {
								t.Errorf("sender %d: flush: %v", s, err)
								return
							}
							held = 0
						}
					}
				}(s)
			}

			next := make([]uint32, senders)
			br := &trickleReader{r: rd, rng: rand.New(rand.NewSource(99))}
			for got := 0; got < senders*frames; got++ {
				frame, err := giop.ReadFrame(br, 0, nil)
				if err != nil {
					t.Fatalf("frame %d: %v", got, err)
				}
				msg, err := giop.Decode(frame)
				if err != nil {
					t.Fatalf("frame %d: %v", got, err)
				}
				req, ok := msg.(*giop.Request)
				if !ok || len(req.Body) < 8 {
					t.Fatalf("frame %d: unexpected %#v", got, msg)
				}
				s, n := binary.BigEndian.Uint32(req.Body), binary.BigEndian.Uint32(req.Body[4:])
				if s >= senders || n != next[s] || req.RequestID != n {
					t.Fatalf("frame %d: sender %d sent %d, expected %d next", got, s, n, next[s])
				}
				next[s]++
				if !bytes.Equal(req.Body, integrityBody(s, n, len(req.Body)-8)) {
					t.Fatalf("sender %d frame %d arrived corrupt", s, n)
				}
			}
			wg.Wait()
			if cap(w.pend) > maxPooledWrite || cap(w.out) > maxPooledWrite {
				t.Errorf("writer keeps %d- and %d-byte batch buffers, cap %d", cap(w.pend), cap(w.out), maxPooledWrite)
			}
		})
	}
}

// rawPeer is a hand-driven client connection on a wire server: the test
// writes GIOP messages and reads what comes back from an inbox that a
// reader goroutine fills, so the server's writes never block.
type rawPeer struct {
	t     *testing.T
	nc    net.Conn
	inbox chan giop.Message // closed at EOF
}

func attachRaw(t *testing.T, srv *Server, wg *sync.WaitGroup) *rawPeer {
	cliEnd, srvEnd := net.Pipe()
	// Room for every message a script can have outstanding.
	p := &rawPeer{t: t, nc: cliEnd, inbox: make(chan giop.Message, 64)}
	wg.Add(2)
	go func() {
		defer wg.Done()
		srv.ServeConn(srvEnd)
	}()
	go func() {
		defer wg.Done()
		defer close(p.inbox)
		for {
			frame, err := giop.ReadFrame(cliEnd, 0, nil)
			if err != nil {
				return
			}
			if m, err := giop.Decode(frame); err == nil {
				p.inbox <- m
			}
		}
	}()
	return p
}

func (p *rawPeer) send(m giop.Message) {
	p.t.Helper()
	if _, err := p.nc.Write(m.Marshal(cdr.BigEndian)); err != nil {
		p.t.Errorf("raw write: %v", err)
	}
}

// next returns the next message, or nil when none arrives in time (or the
// connection closed).
func (p *rawPeer) next() giop.Message {
	select {
	case m := <-p.inbox:
		return m
	case <-time.After(3 * time.Second):
		return nil
	}
}

// eventually polls cond, for state a goroutine settles a moment after the
// event the test waited on.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func rawRequest(id uint32, key string, ctxs ...giop.ServiceContext) *giop.Request {
	return &giop.Request{RequestID: id, ResponseExpected: true, ObjectKey: []byte(key),
		Operation: "op", ServiceContexts: ctxs, Body: []byte(fmt.Sprintf("body-%d", id))}
}

// gatedServer is a one-lane server whose "gate" servant parks its worker
// until released, so a script can build a backlog behind it.
type gatedServer struct {
	*Server
	entered, tokens chan struct{}
	echoes          atomic.Int64
	wg              sync.WaitGroup
}

// newGatedServer's optional observed config supplies the Bus and Tracer.
func newGatedServer(t *testing.T, workers, queue int, observed ...ServerConfig) *gatedServer {
	leakCheck(t)
	var cfg ServerConfig
	if len(observed) > 0 {
		cfg = observed[0]
	}
	cfg.Lanes = []LaneConfig{{Workers: workers, QueueLimit: queue}}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedServer{Server: srv, entered: make(chan struct{}, 8), tokens: make(chan struct{}, 8)}
	quit := make(chan struct{})
	srv.Register("gate", HandlerFunc(func(req *Request) ([]byte, error) {
		g.entered <- struct{}{}
		select {
		case <-g.tokens:
		case <-quit:
		}
		return req.Body, nil
	}))
	srv.Register("echo", HandlerFunc(func(req *Request) ([]byte, error) {
		g.echoes.Add(1)
		return req.Body, nil
	}))
	t.Cleanup(func() {
		close(quit)
		srv.Shutdown(2 * time.Second)
		g.wg.Wait()
		checkLedger(t, srv)
	})
	return g
}

func (g *gatedServer) awaitGate(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(3 * time.Second):
		t.Fatal("gate servant never ran")
	}
}

// TestCoalesceNothingStranded: behind a parked worker the script queues an
// executed request, one whose deadline has passed, one that is cancelled,
// a oneway, an FT request with a replay parked on it from a second
// connection, and overflows the queue; then it lets the worker go. Every
// reply that is owed must arrive with no further traffic to push it out —
// whichever kind of request the worker handled last.
func TestCoalesceNothingStranded(t *testing.T) {
	ft := giop.FTRequestContext(7, 7, 1, cdr.BigEndian)
	past := giop.DeadlineContext(time.Now().Add(-time.Second).UnixNano(), cdr.BigEndian)
	const (
		idGate, idEcho, idShed, idCancel, idOneway, idFT, idReplay, idRefused = 1, 2, 3, 4, 5, 6, 7, 8
	)
	kinds := map[string]func(a *rawPeer){
		"executed": func(a *rawPeer) { a.send(rawRequest(idEcho, "echo")) },
		"shed":     func(a *rawPeer) { a.send(rawRequest(idShed, "echo", past)) },
		"cancelled": func(a *rawPeer) {
			a.send(rawRequest(idCancel, "echo"))
			a.send(&giop.CancelRequest{RequestID: idCancel})
		},
		"oneway": func(a *rawPeer) {
			m := rawRequest(idOneway, "echo")
			m.ResponseExpected = false
			a.send(m)
		},
		"ft": func(a *rawPeer) { a.send(rawRequest(idFT, "echo", ft)) },
	}
	for _, last := range []string{"executed", "shed", "cancelled", "oneway", "ft"} {
		t.Run("last="+last, func(t *testing.T) {
			g := newGatedServer(t, 1, 5)
			a, b := attachRaw(t, g.Server, &g.wg), attachRaw(t, g.Server, &g.wg)
			defer a.nc.Close()
			defer b.nc.Close()

			a.send(rawRequest(idGate, "gate"))
			g.awaitGate(t)
			for name, queue := range kinds {
				if name != last {
					queue(a)
				}
			}
			kinds[last](a)
			// The five fill the queue: a sixth request is refused by the
			// read loop, at once, while the worker is still parked.
			a.send(rawRequest(idRefused, "echo"))
			if rep, ok := a.next().(*giop.Reply); !ok || rep.RequestID != idRefused || rep.Status != giop.StatusSystemException {
				t.Fatalf("the overflowing request was answered with %#v, want a refusal", rep)
			}
			// A replay of the queued FT request parks on it.
			b.send(rawRequest(idReplay, "echo", ft))
			waitCounter(t, g.Registry(), "wire.server.outcomes", 1, telemetry.L("lane", "0"), telemetry.L("outcome", "ft_parked"))
			g.tokens <- struct{}{}

			want := map[uint32]giop.ReplyStatus{
				idGate: giop.StatusNoException, idEcho: giop.StatusNoException,
				idShed: giop.StatusSystemException, idFT: giop.StatusNoException,
			}
			for len(want) > 0 {
				rep, ok := a.next().(*giop.Reply)
				if !ok {
					t.Fatalf("replies still owed on the first connection: %v", want)
				}
				if status, owed := want[rep.RequestID]; !owed || status != rep.Status {
					t.Fatalf("unexpected reply %d (%v)", rep.RequestID, rep.Status)
				}
				delete(want, rep.RequestID)
			}
			if rep, ok := b.next().(*giop.Reply); !ok || rep.RequestID != idReplay || string(rep.Body) != fmt.Sprintf("body-%d", idFT) {
				t.Fatalf("the parked replay was answered with %#v, want the original's reply", rep)
			}
			// executed, oneway and ft ran; shed and cancelled did not. (The
			// worker may still be on the oneway, and books its frames after
			// the flush that delivered them.)
			eventually(t, "the echo servant to have run 3 times", func() bool { return g.echoes.Load() == 3 })
			eventually(t, "the lane to book 6 frames: 5 replies on one connection, 1 on the other", func() bool {
				lane := g.Snapshot().Lanes[0]
				return lane.Frames == 6 && lane.Flushes >= 1 && lane.Flushes <= lane.Frames
			})
		})
	}
}

// TestCoalesceShutdownDeliversHeldReplies: a drain that starts while
// replies are queued behind a parked worker announces itself, lets every
// queued request finish and delivers every reply before the socket closes.
func TestCoalesceShutdownDeliversHeldReplies(t *testing.T) {
	const backlog = 12
	g := newGatedServer(t, 1, 64)
	a := attachRaw(t, g.Server, &g.wg)
	defer a.nc.Close()
	a.send(rawRequest(1, "gate"))
	g.awaitGate(t)
	for id := uint32(2); id < 2+backlog; id++ {
		a.send(rawRequest(id, "echo"))
	}
	waitCounter(t, g.Registry(), "wire.server.requests", 1+backlog, telemetry.L("lane", "0"))

	down := make(chan struct{})
	go func() {
		defer close(down)
		g.Shutdown(5 * time.Second)
	}()
	if _, ok := a.next().(*giop.CloseConnection); !ok {
		t.Fatal("the drain was not announced first")
	}
	g.tokens <- struct{}{}
	for id := uint32(1); id < 2+backlog; id++ {
		rep, ok := a.next().(*giop.Reply)
		if !ok || rep.RequestID != id {
			t.Fatalf("reply %d: got %#v before the connection closed", id, rep)
		}
	}
	if m, open := <-a.inbox; open {
		t.Fatalf("unexpected %#v after the last reply", m)
	}
	<-down
}

// TestFlushHeldTimeBound: a reply is never parked behind a slow
// neighbour. With a backlog of requests to a 5 ms servant, reply k is in
// the client's hands before servant k+1 returns.
func TestFlushHeldTimeBound(t *testing.T) {
	const calls = 6
	leakCheck(t)
	srv, err := NewServer(ServerConfig{Lanes: []LaneConfig{{Workers: 1, QueueLimit: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	var returned [calls + 1]atomic.Int64 // when servant k was about to return
	srv.Register("slow", HandlerFunc(func(req *Request) ([]byte, error) {
		time.Sleep(5 * time.Millisecond)
		returned[req.Body[0]].Store(time.Now().UnixNano())
		return req.Body, nil
	}))
	var wg sync.WaitGroup
	a := attachRaw(t, srv, &wg)
	t.Cleanup(func() {
		a.nc.Close()
		srv.Shutdown(2 * time.Second)
		wg.Wait()
	})
	var burst []byte
	for k := 1; k <= calls; k++ {
		m := rawRequest(uint32(k), "slow")
		m.Body = []byte{byte(k)}
		burst = m.AppendTo(burst, cdr.BigEndian)
	}
	if _, err := a.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	var read [calls + 1]int64
	for k := 1; k <= calls; k++ {
		rep, ok := a.next().(*giop.Reply)
		if !ok || rep.RequestID != uint32(k) {
			t.Fatalf("reply %d: got %#v", k, rep)
		}
		read[k] = time.Now().UnixNano()
	}
	for k := 1; k < calls; k++ {
		if next := returned[k+1].Load(); read[k] >= next {
			t.Errorf("reply %d was read %v after servant %d returned: it was held behind a slow neighbour",
				k, time.Duration(read[k]-next), k+1)
		}
	}
}

// TestFlushHeldReplyNotParkedBehindBlockedServant: a fast servant followed
// by one that blocks. The held replies must reach their caller while the
// next servant is still running — it may be waiting for something that
// caller does only once it has them — and when that servant ends after
// longer than the server's whole write bound, and being a oneway brings no
// reply of its own, the connection is as usable as before.
func TestFlushHeldReplyNotParkedBehindBlockedServant(t *testing.T) {
	g := newGatedServer(t, 1, 64)
	a := attachRaw(t, g.Server, &g.wg)
	defer a.nc.Close()
	a.send(rawRequest(1, "gate"))
	g.awaitGate(t)
	a.send(rawRequest(2, "echo"))
	blocked := rawRequest(3, "gate")
	blocked.ResponseExpected = false
	a.send(blocked)
	waitCounter(t, g.Registry(), "wire.server.requests", 3, telemetry.L("lane", "0"))

	// The worker leaves the first gate with a backlog, so it holds reply 1,
	// runs the echo, holds reply 2 and parks in the second gate.
	g.tokens <- struct{}{}
	g.awaitGate(t)
	for id := uint32(1); id <= 2; id++ {
		select {
		case m := <-a.inbox:
			if rep, ok := m.(*giop.Reply); !ok || rep.RequestID != id {
				t.Fatalf("reply %d: got %#v", id, m)
			}
		case <-time.After(time.Second):
			t.Fatalf("reply %d is parked behind a servant that has not returned", id)
		}
	}

	time.Sleep(2*serverFlushPeriod + 100*time.Millisecond)
	g.tokens <- struct{}{}
	a.send(rawRequest(4, "echo"))
	if rep, ok := a.next().(*giop.Reply); !ok || rep.RequestID != 4 {
		t.Fatalf("reply 4, after a servant that outlasted the write bound: got %#v", rep)
	}
	if n := g.Registry().Counter("wire.server.write_errors").Value(); n != 0 {
		t.Errorf("%g write errors on a healthy connection", n)
	}
}

// failConn is a net.Conn whose Write parks until released and then fails.
type failConn struct {
	net.Conn
	writes  atomic.Int64
	release chan struct{}
}

func (c *failConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	<-c.release
	return 0, errors.New("boom")
}
func (c *failConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriterFailedFlushFailsBatchOnce: the callers queued behind a Write
// that fails all get its error, no second Write is attempted, later
// callers get the error without touching the socket, and the teardown
// hook runs exactly once.
func TestWriterFailedFlushFailsBatchOnce(t *testing.T) {
	const callers = 16
	nc := &failConn{release: make(chan struct{})}
	var failed atomic.Int64
	w := &connWriter{nc: nc, failed: func(error) { failed.Add(1) }}
	frame := (&giop.CancelRequest{RequestID: 1}).Marshal(cdr.BigEndian)
	enc := func(dst []byte) []byte { return append(dst, frame...) }
	deadline := time.Now().Add(time.Minute)

	errs := make(chan error, callers)
	var queued sync.WaitGroup
	queued.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			ticket, _ := w.queue(len(frame), enc, deadline)
			queued.Done()
			_, err := w.flush(ticket, deadline)
			errs <- err
		}()
	}
	queued.Wait()
	close(nc.release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil || err.Error() != "boom" {
			t.Errorf("caller got %v, want the write error", err)
		}
	}
	for _, size := range []int{len(frame), largeFrame} {
		ticket, _ := w.queue(size, enc, deadline)
		if _, err := w.flush(ticket, deadline); err == nil {
			t.Errorf("a %d-byte frame after the failure succeeded", size)
		}
	}
	// One Write carried the first flusher's batch and failed; a second may
	// have started for frames queued behind it only before the error was
	// recorded — which wmu rules out.
	if n := nc.writes.Load(); n != 1 {
		t.Errorf("%d Writes, want 1: nothing may be written after a failure", n)
	}
	if n := failed.Load(); n != 1 {
		t.Errorf("the failure hook ran %d times, want 1", n)
	}
}

// TestFlushFailureDropsConnectionOnce: on a client whose peer stops
// reading and then goes away, every call caught in the failed batch
// returns ErrUnavailable, the connection leaves the pool, and the next
// call dials a fresh one.
func TestFlushFailureDropsConnectionOnce(t *testing.T) {
	const callers = 8
	leakCheck(t)
	var mu sync.Mutex
	var peers []net.Conn
	// (The breaker stays out of it: eight failures would open the circuit.)
	cli, err := NewClient(ClientConfig{Addr: "pipe", Breaker: breaker.Config{Threshold: 100}, Dial: func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		mu.Lock()
		peers = append(peers, srvEnd)
		mu.Unlock()
		return cliEnd, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := cli.Invoke("app/echo", "echo", []byte("x"), CallOptions{Timeout: 10 * time.Second})
			errs <- err
		}()
	}
	// Nobody reads the pipe, so the first flusher parks in Write and the
	// others queue behind it; then the peer goes away.
	waitCounter(t, cli.Registry(), "wire.client.frames", callers, telemetry.L("band", "0"))
	mu.Lock()
	peers[0].Close()
	mu.Unlock()
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrUnavailable) {
			t.Errorf("caller got %v, want ErrUnavailable", err)
		}
	}
	if n := cli.Snapshot().Bands[0].Conns; n != 0 {
		t.Errorf("%d connections pooled after the failure, want 0", n)
	}
	// The next call finds the pool empty and dials; answer it by hand.
	go func() {
		_, err := cli.Invoke("app/echo", "echo", []byte("y"), CallOptions{Timeout: 10 * time.Second})
		errs <- err
	}()
	// (The dials counter moves before the Dial hook runs, so wait for the
	// hook itself.)
	var peer net.Conn
	eventually(t, "the second dial", func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(peers) > 1 {
			peer = peers[1]
		}
		return peer != nil
	})
	frame, err := giop.ReadFrame(peer, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := giop.Decode(frame)
	peer.Write((&giop.Reply{RequestID: req.(*giop.Request).RequestID, Body: []byte("y")}).Marshal(cdr.BigEndian))
	if err := <-errs; err != nil {
		t.Errorf("the call after the failure: %v", err)
	}
	peer.Close()
}

// discardConn accepts every write.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriterSteadyStateAllocatesNothing: once the batch buffers have
// grown, queueing and flushing a 64 B frame allocates nothing, and a
// burst that grew them past maxPooledWrite is not kept.
func TestWriterSteadyStateAllocatesNothing(t *testing.T) {
	w := &connWriter{nc: discardConn{}, failed: func(err error) { t.Errorf("write failed: %v", err) }}
	m := giop.Reply{RequestID: 1, Body: make([]byte, 64)}
	enc := func(dst []byte) []byte { return m.AppendTo(dst, cdr.BigEndian) }
	deadline := time.Now().Add(time.Minute)
	step := func() {
		ticket, _ := w.queue(len(m.Body), enc, deadline)
		if _, err := w.flush(ticket, deadline); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step() // both buffers have served a batch
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("queue+flush of a 64 B frame allocates %.1f times, want 0", n)
	}

	var last uint64
	for n := 0; n < 2*maxPooledWrite/len(m.Body); n++ {
		last, _ = w.queue(len(m.Body), enc, deadline)
	}
	if _, err := w.flush(last, deadline); err != nil {
		t.Fatal(err)
	}
	step()
	if cap(w.pend) > maxPooledWrite || cap(w.out) > maxPooledWrite {
		t.Errorf("writer keeps %d- and %d-byte batch buffers after a burst, cap %d", cap(w.pend), cap(w.out), maxPooledWrite)
	}
}

// TestWedgedPeerDoesNotPinLane: a peer that stops reading costs the lane
// worker one bounded Write and itself its connection; the worker's other
// connections — even one whose reply sits in the same batch — keep being
// served.
func TestWedgedPeerDoesNotPinLane(t *testing.T) {
	g := newGatedServer(t, 1, 64)
	a := attachRaw(t, g.Server, &g.wg)
	defer a.nc.Close()
	wedged, srvEnd := net.Pipe()
	defer wedged.Close()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.ServeConn(srvEnd)
	}()

	// Behind the parked worker: a request from the peer that will never
	// read its reply, then one from the healthy peer.
	a.send(rawRequest(1, "gate"))
	g.awaitGate(t)
	if _, err := wedged.Write(rawRequest(1, "echo").Marshal(cdr.BigEndian)); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, g.Registry(), "wire.server.requests", 2, telemetry.L("lane", "0"))
	a.send(rawRequest(2, "echo"))
	waitCounter(t, g.Registry(), "wire.server.requests", 3, telemetry.L("lane", "0"))
	g.tokens <- struct{}{}

	for id := uint32(1); id <= 4; id++ {
		served := g.Snapshot().Lanes[0].Served
		if id > 2 {
			a.send(rawRequest(id, "echo"))
		}
		// (next waits 3 s; the wedged Write is given up after at most 2.)
		if rep, ok := a.next().(*giop.Reply); !ok || rep.RequestID != id {
			t.Fatalf("reply %d beside a wedged peer: got %#v", id, rep)
		}
		if id > 2 && g.Snapshot().Lanes[0].Served <= served {
			t.Fatalf("request %d: the lane's served count stayed at %d", id, served)
		}
	}
	waitCounter(t, g.Registry(), "wire.server.write_errors", 1)
	eventually(t, "the wedged connection to detach", func() bool { return g.Snapshot().Connections == 1 })
}

// TestFlushBehindWedgedWriteKeepsItsOwnBound: two workers share a lane; one
// is stuck in a Write to a peer that stopped reading, the other holds a
// reply for that same connection and, behind it, one for a healthy peer.
// The second worker waits out the first one's Write, and then the healthy
// connection's Write must get a bound of its own — not what is left of one
// taken before the wait, which is nothing.
func TestFlushBehindWedgedWriteKeepsItsOwnBound(t *testing.T) {
	g := newGatedServer(t, 2, 64)
	a, c := attachRaw(t, g.Server, &g.wg), attachRaw(t, g.Server, &g.wg)
	defer a.nc.Close()
	defer c.nc.Close()
	wedged, srvEnd := net.Pipe()
	defer wedged.Close()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.ServeConn(srvEnd)
	}()
	write := func(m giop.Message) {
		t.Helper()
		if _, err := wedged.Write(m.Marshal(cdr.BigEndian)); err != nil {
			t.Fatal(err)
		}
	}

	// One worker parks in the gate (for a third peer). The other answers
	// the wedged peer's echo, finds the lane empty and flushes: nobody reads
	// that pipe, so it sits in Write.
	c.send(rawRequest(1, "gate"))
	g.awaitGate(t)
	write(rawRequest(1, "echo"))
	eventually(t, "the echo to run", func() bool { return g.echoes.Load() == 1 })
	time.Sleep(20 * time.Millisecond)
	// Two more echoes wait in the lane until the gate opens: that worker
	// then holds a reply for the wedged connection and one for the healthy
	// connection, and flushes them in that order.
	write(rawRequest(2, "echo"))
	waitCounter(t, g.Registry(), "wire.server.requests", 3, telemetry.L("lane", "0"))
	a.send(rawRequest(1, "echo"))
	waitCounter(t, g.Registry(), "wire.server.requests", 4, telemetry.L("lane", "0"))
	g.tokens <- struct{}{}

	// (next waits 3 s; the wedged Write is given up after at most 2.)
	for id := uint32(1); id <= 3; id++ {
		if id > 1 {
			a.send(rawRequest(id, "echo"))
		}
		if rep, ok := a.next().(*giop.Reply); !ok || rep.RequestID != id {
			t.Fatalf("reply %d beside a wedged peer: got %#v", id, rep)
		}
	}
	waitCounter(t, g.Registry(), "wire.server.write_errors", 1)
	eventually(t, "the wedged connection to detach", func() bool { return g.Snapshot().Connections == 2 })
	if n := g.Registry().Counter("wire.server.write_errors").Value(); n != 1 {
		t.Errorf("%g write errors, want 1: only the wedged connection may fail", n)
	}
}

// pipeClient is a client whose connections the test serves by hand.
func pipeClient(t *testing.T) (*Client, func(n int) net.Conn) {
	var mu sync.Mutex
	var peers []net.Conn
	// (The breaker stays out of it.)
	cli, err := NewClient(ClientConfig{Addr: "pipe", Breaker: breaker.Config{Threshold: 100}, Dial: func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		mu.Lock()
		peers = append(peers, srvEnd)
		mu.Unlock()
		return cliEnd, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli, func(n int) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		return peers[n]
	}
}

// TestFlushCancelDoesNotFailNeighbours: a call that gives up while another
// is outstanding on its connection only queues its CancelRequest. The peer
// is not reading just then; a cancel flushed under the short bound of a
// caller that has already left would time out and take the connection, and
// the neighbour's call, with it. The cancel leaves with the next request.
func TestFlushCancelDoesNotFailNeighbours(t *testing.T) {
	leakCheck(t)
	cli, peerOf := pipeClient(t)
	type result struct {
		body []byte
		err  error
	}
	invoke := func(body string, timeout time.Duration) chan result {
		done := make(chan result, 1)
		go func() {
			got, err := cli.Invoke("app/echo", "echo", []byte(body), CallOptions{Timeout: timeout})
			done <- result{got, err}
		}()
		return done
	}
	patient, hasty := invoke("patient", 10*time.Second), invoke("hasty", 100*time.Millisecond)
	waitCounter(t, cli.Registry(), "wire.client.dials", 1, telemetry.L("band", "0"))
	peer := peerOf(0)
	defer peer.Close()
	readMsg := func() giop.Message {
		t.Helper()
		frame, err := giop.ReadFrame(peer, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := giop.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ids := map[string]uint32{}
	for range 2 {
		req := readMsg().(*giop.Request)
		ids[string(req.Body)] = req.RequestID
	}

	// The peer reads nothing from here on. The hasty call expires; well
	// after any bound its cancel could have had, the patient call is
	// answered and must still be there to take the reply.
	if r := <-hasty; !errors.Is(r.err, ErrDeadlineExpired) {
		t.Fatalf("the hasty call: %v, want ErrDeadlineExpired", r.err)
	}
	time.Sleep(150 * time.Millisecond)
	peer.Write((&giop.Reply{RequestID: ids["patient"], Body: []byte("done")}).Marshal(cdr.BigEndian))
	if r := <-patient; r.err != nil || string(r.body) != "done" {
		t.Fatalf("the patient call beside a cancelled one: %q, %v", r.body, r.err)
	}

	// The next request's flush carries the cancel ahead of it.
	next := invoke("next", 10*time.Second)
	if m, ok := readMsg().(*giop.CancelRequest); !ok || m.RequestID != ids["hasty"] {
		t.Fatalf("first message after the expiry: %#v, want the cancel of request %d", m, ids["hasty"])
	}
	req := readMsg().(*giop.Request)
	peer.Write((&giop.Reply{RequestID: req.RequestID, Body: req.Body}).Marshal(cdr.BigEndian))
	if r := <-next; r.err != nil {
		t.Fatalf("the call after the cancel: %v", r.err)
	}
	if n := cli.Registry().Counter("wire.client.dials", telemetry.L("band", "0")).Value(); n != 1 {
		t.Errorf("%g dials, want 1: the connection should have survived", n)
	}
}

// TestFlushCancelAloneIsSentAtOnce: with no other call outstanding on the
// connection nobody else would carry the cancel, so it is flushed.
func TestFlushCancelAloneIsSentAtOnce(t *testing.T) {
	leakCheck(t)
	cli, peerOf := pipeClient(t)
	done := make(chan error, 1)
	go func() {
		_, err := cli.Invoke("app/echo", "echo", []byte("x"), CallOptions{Timeout: 50 * time.Millisecond})
		done <- err
	}()
	waitCounter(t, cli.Registry(), "wire.client.dials", 1, telemetry.L("band", "0"))
	peer := peerOf(0)
	defer peer.Close()
	var msgs [2]giop.Message
	for i := range msgs {
		frame, err := giop.ReadFrame(peer, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		msgs[i], _ = giop.Decode(frame)
	}
	req, _ := msgs[0].(*giop.Request)
	cancel, _ := msgs[1].(*giop.CancelRequest)
	if req == nil || cancel == nil || cancel.RequestID != req.RequestID {
		t.Fatalf("got %#v then %#v, want a request and its cancel", msgs[0], msgs[1])
	}
	if err := <-done; !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("the call: %v, want ErrDeadlineExpired", err)
	}
}

// TestRegisterDuringTraffic: servants can be registered while every lane
// is dispatching (the race detector checks the servant table).
func TestRegisterDuringTraffic(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{Lanes: []LaneConfig{{Priority: 0, Workers: 2}, {Priority: EFPriority, Workers: 2}}},
		ClientConfig{Bands: []int16{0, EFPriority}})
	echoHandler(srv)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, prio := range []int16{0, EFPriority} {
		wg.Add(1)
		go func(prio int16) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cli.Invoke("app/echo", "echo", []byte("x"), CallOptions{Priority: prio}); err != nil {
					t.Errorf("invoke during Register: %v", err)
					return
				}
			}
		}(prio)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("late/%d", i)
		srv.Register(key, HandlerFunc(func(req *Request) ([]byte, error) { return []byte(key), nil }))
		if got, err := cli.Invoke(key, "op", nil, CallOptions{}); err != nil || string(got) != key {
			t.Fatalf("servant %s right after Register: %q, %v", key, got, err)
		}
	}
	close(stop)
	wg.Wait()
}
