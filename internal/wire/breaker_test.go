package wire

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/cdr"
	"repro/internal/events"
	"repro/internal/giop"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// TestClientCloseDoesNotTripBreaker: Close with more calls in flight than
// the breaker's threshold fails each of them with ErrClientClosed, and none
// of those failures is booked against the endpoint — a local teardown says
// nothing about the server.
func TestClientCloseDoesNotTripBreaker(t *testing.T) {
	bus := events.NewBus(sim.Wall)
	breakers := events.NewTimeline(bus, events.KindBreaker)
	srv, cli := loopback(t, ServerConfig{}, ClientConfig{Bus: bus})
	release := make(chan struct{})
	defer close(release)
	srv.Register("app/slow", HandlerFunc(func(req *Request) ([]byte, error) {
		<-release
		return req.Body, nil
	}))

	const calls = 6 // over the default threshold of 4
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := cli.Invoke("app/slow", "hang", nil, CallOptions{Timeout: 10 * time.Second})
			errs <- err
		}()
	}
	waitCounter(t, srv.Registry(), "wire.server.requests", calls, telemetry.L("lane", "0"))
	cli.Close()
	for i := 0; i < calls; i++ {
		if err := <-errs; !errors.Is(err, ErrClientClosed) {
			t.Fatalf("in-flight call failed with %v, want ErrClientClosed", err)
		}
	}

	for _, key := range cli.Registry().CounterKeys() {
		if name, _ := telemetry.ParseKey(key); name == "wire.client.breaker_transitions" {
			t.Errorf("%s = %g, want no transition", key, cli.Registry().CounterByKey(key).Value())
		}
	}
	if s := cli.BreakerState(0); s != breaker.Closed {
		t.Errorf("breaker state %v after Close, want closed", s)
	}
	if recs := breakers.Records(); len(recs) != 0 {
		t.Errorf("breaker records %v, want none", recs)
	}
}

// TestBreakerVerdictPerOutcome pins the client's one breaker verdict with
// one real path per row. Each row runs on a fresh client whose circuit opens
// at two failures and already holds one. Afterwards an open circuit means
// the row counted a failure; otherwise one more failure opens it only if
// the row recorded nothing, since a success resets the count.
func TestBreakerVerdictPerOutcome(t *testing.T) {
	refuse := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	// garbled answers every request frame with MessageError.
	garbled := func() (net.Conn, error) {
		cliEnd, peer := net.Pipe()
		go func() {
			defer peer.Close()
			for {
				if _, err := giop.ReadFrame(peer, 0, nil); err != nil {
					return
				}
				peer.Write((&giop.MessageError{}).Marshal(cdr.BigEndian))
			}
		}()
		return cliEnd, nil
	}
	// park starts a call that parks in the gate servant until the row ends,
	// and returns its result.
	type parkFn func() <-chan error
	rows := []struct {
		name, outcome, verdict string
		dial                   func() (net.Conn, error)
		run                    func(cli *Client, park parkFn) error
	}{
		{name: "dial error", outcome: "unavailable", verdict: "failure", dial: refuse},
		{name: "MessageError", outcome: "protocol", verdict: "failure", dial: garbled},
		{name: "server TIMEOUT", outcome: "deadline", verdict: "failure", run: func(cli *Client, _ parkFn) error {
			_, err := cli.Invoke("app/timeout", "op", nil, CallOptions{})
			return err
		}},
		{name: "OBJECT_NOT_EXIST", outcome: "not_exist", verdict: "success", run: func(cli *Client, _ parkFn) error {
			_, err := cli.Invoke("app/missing", "op", nil, CallOptions{})
			return err
		}},
		{name: "client deadline", outcome: "deadline", verdict: "failure", run: func(cli *Client, _ parkFn) error {
			_, err := cli.Invoke("app/gate", "op", nil, CallOptions{Timeout: 20 * time.Millisecond})
			return err
		}},
		{name: "oneway", outcome: "ok", verdict: "success", run: func(cli *Client, _ parkFn) error {
			_, err := cli.Invoke("app/echo", "op", nil, CallOptions{Oneway: true})
			return err
		}},
		// The second failure opens the circuit; once its cooldown passes a
		// call goes out as the half-open probe and parks, and a call made
		// meanwhile is refused. Any outcome it recorded would move the
		// half-open circuit.
		{name: "open circuit", outcome: "circuit_open", verdict: "none", run: func(cli *Client, park parkFn) error {
			cli.record(cli.bands[0], true)
			time.Sleep(10 * time.Millisecond)
			park()
			_, err := cli.Invoke("app/echo", "op", nil, CallOptions{})
			return err
		}},
		{name: "closed", outcome: "closed", verdict: "none", run: func(cli *Client, park parkFn) error {
			done := park()
			cli.Close()
			return <-done
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, cli := loopback(t, ServerConfig{}, ClientConfig{
				Breaker: breaker.Config{Threshold: 2, Cooldown: time.Millisecond, CooldownCap: time.Minute},
			})
			echoHandler(srv)
			srv.Register("app/timeout", HandlerFunc(func(*Request) ([]byte, error) {
				return nil, &Exception{ID: giop.ExcTimeout, Minor: 2}
			}))
			// One slot: the client-deadline row's call enters the gate with
			// nobody waiting for it.
			entered, release := make(chan struct{}, 1), make(chan struct{})
			srv.Register("app/gate", HandlerFunc(func(*Request) ([]byte, error) {
				entered <- struct{}{}
				<-release
				return nil, nil
			}))
			var parked sync.WaitGroup
			t.Cleanup(func() {
				close(release)
				parked.Wait()
			})
			park := func() <-chan error {
				done := make(chan error, 1)
				parked.Add(1)
				go func() {
					defer parked.Done()
					_, err := cli.Invoke("app/gate", "op", nil, CallOptions{Timeout: 10 * time.Second})
					done <- err
				}()
				<-entered
				return done
			}
			if row.dial != nil {
				cli.cfg.Dial = row.dial
			}
			run := row.run
			if run == nil {
				run = func(cli *Client, _ parkFn) error {
					_, err := cli.Invoke("app/echo", "op", nil, CallOptions{})
					return err
				}
			}

			cli.record(cli.bands[0], true)
			err := run(cli, park)
			outcome := "ok"
			if err != nil {
				outcome = errClass(err)
			}
			if outcome != row.outcome {
				t.Fatalf("outcome %s (%v), want %s", outcome, err, row.outcome)
			}
			verdict := "failure"
			if cli.BreakerState(0) != breaker.Open {
				cli.record(cli.bands[0], true)
				verdict = "success"
				if cli.BreakerState(0) == breaker.Open {
					verdict = "none"
				}
			}
			if verdict != row.verdict {
				t.Errorf("breaker verdict %s, want %s", verdict, row.verdict)
			}
		})
	}
}
