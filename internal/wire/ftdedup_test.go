package wire

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ftLoopback wires n independent clients to one server over net.Pipe —
// each client models one connection epoch (a reconnect is "stop using
// client k, start using client k+1"), which is how a replayed FT
// request arrives on a different connection than the original.
func ftLoopback(t *testing.T, scfg ServerConfig, n int) (*Server, []*Client) {
	t.Helper()
	leakCheck(t)
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var readers sync.WaitGroup
	dial := func() (net.Conn, error) {
		cliEnd, srvEnd := net.Pipe()
		readers.Add(1)
		go func() {
			defer readers.Done()
			srv.ServeConn(srvEnd)
		}()
		return cliEnd, nil
	}
	clients := make([]*Client, n)
	for i := range clients {
		cli, err := NewClient(ClientConfig{Addr: "pipe", Dial: dial})
		if err != nil {
			t.Fatalf("NewClient %d: %v", i, err)
		}
		clients[i] = cli
	}
	t.Cleanup(func() {
		for _, cli := range clients {
			cli.Close()
		}
		srv.Shutdown(2 * time.Second)
		readers.Wait()
		checkLedger(t, srv)
	})
	return srv, clients
}

// TestFTDedupReplayAcrossReconnect pins the at-most-once contract: a
// request replayed with the identical FT context over a fresh
// connection (new client, new GIOP request ID) returns the cached reply
// byte-identically instead of re-invoking the servant — even though the
// replay carries a different body, which a re-execution would echo.
func TestFTDedupReplayAcrossReconnect(t *testing.T) {
	var execs atomic.Int64
	srv, clients := ftLoopback(t, ServerConfig{}, 2)
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		execs.Add(1)
		return req.Body, nil
	}))

	ft := &FTRequest{Group: 7, Client: 99, Retention: 1}
	first, err := clients[0].Invoke("app/echo", "echo", []byte("original"), CallOptions{ft: ft})
	if err != nil {
		t.Fatalf("original invoke: %v", err)
	}
	if string(first) != "original" {
		t.Fatalf("original reply = %q", first)
	}

	// "Reconnect": the original connection epoch ends, the retry goes
	// out on a new connection with the same logical identity.
	clients[0].Close()
	replay, err := clients[1].Invoke("app/echo", "echo", []byte("RETRY-DIFFERENT-BODY"), CallOptions{ft: ft})
	if err != nil {
		t.Fatalf("replayed invoke: %v", err)
	}
	if !bytes.Equal(replay, first) {
		t.Fatalf("replayed reply = %q, want cached %q byte-identically", replay, first)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("servant executed %d times, want exactly 1", got)
	}

	// A different retention id is a new logical request and executes.
	fresh, err := clients[1].Invoke("app/echo", "echo", []byte("second logical"), CallOptions{
		ft: &FTRequest{Group: 7, Client: 99, Retention: 2},
	})
	if err != nil {
		t.Fatalf("fresh invoke: %v", err)
	}
	if string(fresh) != "second logical" || execs.Load() != 2 {
		t.Fatalf("fresh reply = %q after %d execs, want new execution", fresh, execs.Load())
	}
}

// TestFTDedupConcurrentReplayWaits pins the in-flight half: a replay
// racing the original execution parks as a waiter and receives the
// original's reply — one execution, two identical answers.
func TestFTDedupConcurrentReplayWaits(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	srv, clients := ftLoopback(t, ServerConfig{}, 2)
	srv.Register("app/slow", HandlerFunc(func(req *Request) ([]byte, error) {
		execs.Add(1)
		<-release
		return []byte("outcome"), nil
	}))

	ft := &FTRequest{Group: 1, Client: 5, Retention: 42}
	type res struct {
		body []byte
		err  error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		cli := clients[i]
		go func() {
			body, err := cli.Invoke("app/slow", "slow", nil, CallOptions{ft: ft, Timeout: 5 * time.Second})
			results <- res{body, err}
		}()
		// Stagger so the first registers the in-flight entry before the
		// replay arrives.
		time.Sleep(50 * time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("invocation %d: %v", i, r.err)
		}
		if string(r.body) != "outcome" {
			t.Fatalf("invocation %d reply = %q", i, r.body)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("servant executed %d times, want exactly 1", got)
	}
}

// TestFTDedupRefusalNotCached pins the abort half: an admission refusal
// (queue full / draining) never executed the servant, so it must not
// poison the cache — the retry of the same logical request executes.
func TestFTDedupRefusalNotCached(t *testing.T) {
	var execs atomic.Int64
	srv, clients := ftLoopback(t, ServerConfig{}, 1)
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		execs.Add(1)
		return req.Body, nil
	}))

	ft := &FTRequest{Group: 3, Client: 8, Retention: 1}
	// Drain mode refuses at admission; flip it on via the internal flag
	// to hit the refuse path deterministically without filling a queue.
	srv.draining.Store(true)
	_, err := clients[0].Invoke("app/echo", "echo", []byte("refused"), CallOptions{ft: ft})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("refused invoke = %v, want ErrOverload", err)
	}
	if execs.Load() != 0 {
		t.Fatal("refused request executed the servant")
	}
	srv.draining.Store(false)

	got, err := clients[0].Invoke("app/echo", "echo", []byte("retried"), CallOptions{ft: ft})
	if err != nil {
		t.Fatalf("retry after refusal: %v", err)
	}
	if string(got) != "retried" || execs.Load() != 1 {
		t.Fatalf("retry reply = %q after %d execs, want fresh execution", got, execs.Load())
	}
}
