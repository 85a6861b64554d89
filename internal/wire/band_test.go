package wire

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/trace/telemetry"
)

// These tests pin the one-connection band (clientBand.get): concurrent
// callers share one dial and its outcome, a retired or failed connection
// is replaced by exactly one fresh dial, and wire.client.pool_conns reads
// 0 or 1. All are socket-free over ClientConfig.Dial.

// waitInGet blocks until n goroutines are inside clientBand.get — the one
// dialing plus those waiting for its outcome — so a test can release a held
// dial knowing who shares it.
func waitInGet(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if got := strings.Count(stacks, "wire.(*clientBand).get("); got == n {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines in clientBand.get, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func bandDials(cli *Client) float64 {
	return cli.Registry().Counter("wire.client.dials", telemetry.L("band", "0")).Value()
}

func bandConns(cli *Client) float64 {
	return cli.Registry().Gauge("wire.client.pool_conns", telemetry.L("band", "0")).Value()
}

// pipeTo returns a Dial hook result: one end of a net.Pipe whose other end
// srv serves; readers tracks the serving goroutine.
func pipeTo(srv *Server, readers *sync.WaitGroup) net.Conn {
	cliEnd, srvEnd := net.Pipe()
	readers.Add(1)
	go func() {
		defer readers.Done()
		srv.ServeConn(srvEnd)
	}()
	return cliEnd
}

// TestBandColdStartSharesOneDial: 32 first calls arrive on a cold band
// while its dial is held; all of them ride the one connection it yields.
func TestBandColdStartSharesOneDial(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	echoHandler(srv)
	var readers sync.WaitGroup
	release := make(chan struct{})
	cli, err := NewClient(ClientConfig{Addr: "pipe", Dial: func() (net.Conn, error) {
		<-release
		return pipeTo(srv, &readers), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Shutdown(2 * time.Second)
		readers.Wait()
	})

	const callers = 32
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			want := fmt.Sprintf("cold-%02d", i)
			got, err := cli.Invoke("app/echo", "echo", []byte(want), CallOptions{Timeout: 5 * time.Second})
			if err == nil && string(got) != want {
				err = fmt.Errorf("reply %q, want %q", got, want)
			}
			errs <- err
		}(i)
	}
	waitInGet(t, callers)
	if s := cli.Snapshot().Bands[0]; s.Conns != 0 || s.Dialing != 1 {
		t.Errorf("snapshot during the dial = %+v, want 0 conns, 1 dialing", s)
	}
	close(release)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("caller: %v", err)
		}
	}
	if d := bandDials(cli); d != 1 {
		t.Errorf("dials = %g, want 1", d)
	}
	if c := bandConns(cli); c != 1 {
		t.Errorf("pool_conns = %g, want 1", c)
	}
}

// TestBandFailedDialIsSharedThenRetried: every caller waiting on a dial
// that fails gets that dial's error, and the band is left cold, so the next
// call dials again.
func TestBandFailedDialIsSharedThenRetried(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	echoHandler(srv)
	var readers sync.WaitGroup
	release := make(chan struct{})
	var attempts atomic.Int32
	cli, err := NewClient(ClientConfig{
		Addr: "pipe",
		Dial: func() (net.Conn, error) {
			if n := attempts.Add(1); n == 1 {
				<-release
				return nil, errors.New("refused #1")
			}
			return pipeTo(srv, &readers), nil
		},
		// The shared failure counts once per caller; keep the circuit shut.
		Breaker: breaker.Config{Threshold: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Shutdown(2 * time.Second)
		readers.Wait()
	})

	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := cli.Invoke("app/echo", "echo", nil, CallOptions{Timeout: 5 * time.Second})
			errs <- err
		}()
	}
	waitInGet(t, callers)
	close(release)
	for i := 0; i < callers; i++ {
		err := <-errs
		if !errors.Is(err, ErrDial) || !strings.Contains(err.Error(), "refused #1") {
			t.Errorf("caller error = %v, want ErrDial carrying the first dial's \"refused #1\"", err)
		}
	}
	if d := bandDials(cli); d != 1 {
		t.Fatalf("dials = %g after the shared failure, want 1", d)
	}
	if c := bandConns(cli); c != 0 {
		t.Errorf("pool_conns = %g after a failed dial, want 0", c)
	}

	if _, err := cli.Invoke("app/echo", "echo", []byte("again"), CallOptions{}); err != nil {
		t.Fatalf("call after the failed dial: %v", err)
	}
	if d := bandDials(cli); d != 2 {
		t.Errorf("dials = %g, want 2 (the next call dials again)", d)
	}
	if c := bandConns(cli); c != 1 {
		t.Errorf("pool_conns = %g, want 1", c)
	}
}

// TestBandRetiredConnectionIsReplacedOnce: a draining server's
// CloseConnection retires the band's connection — pool_conns 1 -> 0 — while
// the reply still pending on it lands; the calls that follow share exactly
// one fresh dial — pool_conns back to 1.
func TestBandRetiredConnectionIsReplacedOnce(t *testing.T) {
	leakCheck(t)
	newServer := func() *Server {
		srv, err := NewServer(ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	draining, fresh := newServer(), newServer()
	entered, release := make(chan struct{}), make(chan struct{})
	draining.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		close(entered)
		<-release
		return req.Body, nil
	}))
	echoHandler(fresh)

	var readers sync.WaitGroup
	var attempts atomic.Int32
	cli, err := NewClient(ClientConfig{Addr: "pipe", Dial: func() (net.Conn, error) {
		if attempts.Add(1) == 1 {
			return pipeTo(draining, &readers), nil
		}
		return pipeTo(fresh, &readers), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	var drainOnce, releaseOnce sync.Once
	drain := func() {
		drainOnce.Do(func() { go func() { draining.Shutdown(5 * time.Second); close(drained) }() })
	}
	t.Cleanup(func() {
		cli.Close()
		releaseOnce.Do(func() { close(release) })
		drain()
		<-drained
		fresh.Shutdown(2 * time.Second)
		readers.Wait()
	})

	pending := make(chan error, 1)
	go func() {
		got, err := cli.Invoke("app/echo", "echo", []byte("pending"), CallOptions{Timeout: 5 * time.Second})
		if err == nil && string(got) != "pending" {
			err = fmt.Errorf("reply %q, want \"pending\"", got)
		}
		pending <- err
	}()
	<-entered
	if c := bandConns(cli); c != 1 {
		t.Fatalf("pool_conns = %g with a call in flight, want 1", c)
	}
	drain()
	deadline := time.Now().Add(5 * time.Second)
	for bandConns(cli) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("CloseConnection never retired the band's connection")
		}
		time.Sleep(time.Millisecond)
	}

	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := cli.Invoke("app/echo", "echo", []byte("fresh"), CallOptions{Timeout: 5 * time.Second})
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("call after the retirement: %v", err)
		}
	}
	if d := bandDials(cli); d != 2 {
		t.Errorf("dials = %g, want 2 (one fresh dial replaces the retired connection)", d)
	}
	if c := bandConns(cli); c != 1 {
		t.Errorf("pool_conns = %g after the fresh dial, want 1", c)
	}

	releaseOnce.Do(func() { close(release) })
	if err := <-pending; err != nil {
		t.Errorf("the reply pending on the retired connection: %v", err)
	}
	// The retired connection's EOF must not evict its successor.
	<-drained
	if _, err := cli.Invoke("app/echo", "echo", nil, CallOptions{}); err != nil {
		t.Errorf("call after the retired connection closed: %v", err)
	}
	if d := bandDials(cli); d != 2 {
		t.Errorf("dials = %g after the retired connection closed, want still 2", d)
	}
}

// TestBandDeadOnArrivalConnectionIsReplaced: a connection whose peer is
// gone by the time the band installs it must not stay the band's
// connection; the call that finds it dead dials once more and succeeds.
func TestBandDeadOnArrivalConnectionIsReplaced(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{Breaker: breaker.Config{Threshold: 1 << 20}})
	echoHandler(srv)
	good := cli.cfg.Dial
	var attempts atomic.Int32
	cli.cfg.Dial = func() (net.Conn, error) {
		if attempts.Add(1) == 1 {
			cliEnd, srvEnd := net.Pipe()
			srvEnd.Close()
			return cliEnd, nil
		}
		return good()
	}
	// The first call may lose the race with the dead connection's read
	// loop and fail; no later one may.
	cli.Invoke("app/echo", "echo", nil, CallOptions{Timeout: time.Second})
	for i := 0; i < 3; i++ {
		if _, err := cli.Invoke("app/echo", "echo", nil, CallOptions{Timeout: time.Second}); err != nil {
			t.Fatalf("call %d after a dead-on-arrival connection: %v", i, err)
		}
	}
	if d := bandDials(cli); d != 2 {
		t.Errorf("dials = %g, want 2", d)
	}
}
