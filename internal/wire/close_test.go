package wire

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestClientCloseFailsInFlight pins the shutdown contract: Close during
// an in-flight request fails the pending call promptly with
// ErrClientClosed — no hang until the request timeout, no leaked read
// loop — and later invocations are refused with the same error.
func TestClientCloseFailsInFlight(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{})
	release := make(chan struct{})
	srv.Register("app/slow", HandlerFunc(func(req *Request) ([]byte, error) {
		<-release
		return req.Body, nil
	}))
	defer close(release)

	started := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		close(started)
		_, err := cli.Invoke("app/slow", "hang", []byte("x"), CallOptions{Timeout: 10 * time.Second})
		errCh <- err
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the request reach the servant
	closedAt := time.Now()
	cli.Close()

	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("in-flight call failed with %v, want ErrClientClosed", err)
		}
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("ErrClientClosed does not wrap ErrShutdown: %v", err)
		}
		if waited := time.Since(closedAt); waited > time.Second {
			t.Fatalf("pending call took %v to fail after Close", waited)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call still hanging 2s after Close")
	}

	if _, err := cli.Invoke("app/slow", "hang", nil, CallOptions{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-Close Invoke = %v, want ErrClientClosed", err)
	}
}

// TestClientCloseDuringDial pins the dial/Close race: a connection
// whose dial completes after Close emptied the band must be torn down
// by the dialing goroutine (not installed and leaked), and the call —
// like the one waiting on the same dial — fails with ErrClientClosed.
// The Dial hook blocks until Close has run, forcing the interleaving
// deterministically.
func TestClientCloseDuringDial(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var readers sync.WaitGroup
	t.Cleanup(func() {
		srv.Shutdown(time.Second)
		readers.Wait()
	})

	dialing := make(chan struct{})
	closed := make(chan struct{})
	cli, err := NewClient(ClientConfig{
		Addr: "pipe",
		Dial: func() (net.Conn, error) {
			close(dialing)
			<-closed // hold the dial until Close has emptied the band
			cliEnd, srvEnd := net.Pipe()
			readers.Add(1)
			go func() {
				defer readers.Done()
				srv.ServeConn(srvEnd)
			}()
			return cliEnd, nil
		},
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := cli.Invoke("app/echo", "echo", nil, CallOptions{Timeout: 5 * time.Second})
			errCh <- err
		}()
	}
	<-dialing
	waitInGet(t, 2)
	cli.Close()
	close(closed)

	for i := 0; i < 2; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("call racing Close failed with %v, want ErrClientClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("call racing Close never resolved")
		}
	}
}
