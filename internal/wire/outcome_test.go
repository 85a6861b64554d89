package wire

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/breaker"
	"repro/internal/cdr"
	"repro/internal/events"
	"repro/internal/giop"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// The outcome ledger: every request the server reads ends in exactly one
// outcome, recorded once by settle, and the counters, lane snapshots, bus
// records, spans and replies are all projections of it.

// doubleSettles counts requests settle saw a second time. For the whole test
// binary settleHook marks each request it sees, so a second settle of any
// request in any test shows here, and every server helper's cleanup asserts
// it stays zero (checkLedger).
var doubleSettles atomic.Int64

func init() {
	settleHook = func(req *Request) {
		if req.settled {
			doubleSettles.Add(1)
		}
		req.settled = true
	}
}

// checkLedger, run after Shutdown, asserts that on every lane each request
// read ended in exactly one outcome, and that no request was settled twice.
func checkLedger(t *testing.T, srv *Server) {
	t.Helper()
	for _, lane := range srv.Snapshot().Lanes {
		var sum int64
		for _, n := range lane.Outcomes {
			sum += n
		}
		if sum != lane.Requests {
			t.Errorf("lane %d: %d requests read, %d outcomes %v", lane.Priority, lane.Requests, sum, lane.Outcomes)
		}
	}
	if n := doubleSettles.Load(); n != 0 {
		t.Errorf("%d requests were settled twice", n)
	}
}

// wantOutcomes waits for lane 0's outcome counts to read exactly want (an
// absent label is zero).
func wantOutcomes(t *testing.T, srv *Server, want map[string]int64) {
	t.Helper()
	var got map[string]int64
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		got = srv.Snapshot().Lanes[0].Outcomes
		same := len(got) == len(outcomes)
		for _, f := range outcomes {
			same = same && got[f.label] == want[f.label]
		}
		if same {
			return
		}
	}
	t.Fatalf("outcomes %v, want %v", got, want)
}

// TestOutcomeEachFate drives one raw-GIOP request to each of the eight
// outcomes, plus a oneway that executes, behind a parked worker. Each lands
// in its own wire.server.outcomes series, with the reply bytes the server has
// always sent, one KindShed record per shed and the spans of its outcome.
func TestOutcomeEachFate(t *testing.T) {
	bus := events.NewBus(sim.Wall)
	sheds := events.NewTimeline(bus, events.KindShed)
	tr := NewTracer()
	g := newGatedServer(t, 1, 6, ServerConfig{Bus: bus, Tracer: tr})
	a, b := attachRaw(t, g.Server, &g.wg), attachRaw(t, g.Server, &g.wg)
	defer a.nc.Close()
	defer b.nc.Close()
	ft := giop.FTRequestContext(7, 7, 1, cdr.BigEndian)
	past := giop.DeadlineContext(time.Now().Add(-time.Second).UnixNano(), cdr.BigEndian)
	exc := func(id string, minor uint32) []byte { return giop.EncodeSystemException(id, minor, cdr.BigEndian) }
	shed, timeout := exc(giop.ExcTransient, giop.MinorShed), exc(giop.ExcTimeout, 1)
	type reply struct {
		status giop.ReplyStatus
		body   []byte
	}
	expect := func(p *rawPeer, want map[uint32]reply) {
		t.Helper()
		for len(want) > 0 {
			switch m := p.next().(type) {
			case *giop.CloseConnection:
			case *giop.Reply:
				w, owed := want[m.RequestID]
				if !owed || m.Status != w.status || !bytes.Equal(m.Body, w.body) {
					t.Fatalf("reply %d: %v %q, want %v", m.RequestID, m.Status, m.Body, want)
				}
				delete(want, m.RequestID)
			default:
				t.Fatalf("got %#v, replies still owed: %v", m, want)
			}
		}
	}
	echoed := func(id uint32) reply { return reply{giop.StatusNoException, []byte(fmt.Sprintf("body-%d", id))} }

	a.send(rawRequest(1, "gate"))
	g.awaitGate(t)
	a.send(rawRequest(2, "echo"))
	a.send(rawRequest(3, "missing"))
	a.send(rawRequest(4, "echo", past))
	a.send(rawRequest(5, "echo"))
	a.send(&giop.CancelRequest{RequestID: 5})
	oneway := rawRequest(6, "echo")
	oneway.ResponseExpected = false
	a.send(oneway)
	a.send(rawRequest(7, "echo", ft))
	a.send(rawRequest(8, "echo")) // the queue holds six
	expect(a, map[uint32]reply{8: {giop.StatusSystemException, shed}})
	b.send(rawRequest(9, "echo", ft))
	wantOutcomes(t, g.Server, map[string]int64{"queue_full": 1, "ft_parked": 1})

	g.tokens <- struct{}{}
	expect(a, map[uint32]reply{
		1: echoed(1), 2: echoed(2), 7: echoed(7),
		3: {giop.StatusSystemException, exc(giop.ExcObjectNotExist, 1)},
		4: {giop.StatusSystemException, timeout},
	})
	expect(b, map[uint32]reply{9: echoed(7)})
	wantOutcomes(t, g.Server, map[string]int64{"ok": 4, "exception": 1, "deadline": 1, "cancelled": 1,
		"queue_full": 1, "ft_parked": 1})

	b.send(rawRequest(10, "echo", ft))
	expect(b, map[uint32]reply{10: echoed(7)})

	a.send(rawRequest(11, "gate"))
	g.awaitGate(t)
	down := make(chan struct{})
	go func() {
		defer close(down)
		g.Shutdown(5 * time.Second)
	}()
	if _, ok := a.next().(*giop.CloseConnection); !ok {
		t.Fatal("the drain was not announced")
	}
	a.send(rawRequest(12, "echo"))
	expect(a, map[uint32]reply{12: {giop.StatusSystemException, shed}})
	g.tokens <- struct{}{}
	expect(a, map[uint32]reply{11: echoed(11)})
	<-down

	wantOutcomes(t, g.Server, map[string]int64{"ok": 5, "exception": 1, "queue_full": 1, "draining": 1,
		"deadline": 1, "cancelled": 1, "ft_replay": 1, "ft_parked": 1})
	if lane := g.Snapshot().Lanes[0]; lane.Requests != 12 || lane.Served != 6 || lane.Refused != 2 || lane.Shed != 1 {
		t.Errorf("lane snapshot: %d requests, %d served, %d refused, %d shed; want 12, 6, 2, 1",
			lane.Requests, lane.Served, lane.Refused, lane.Shed)
	}

	var got []string
	for _, r := range sheds.Records() {
		got = append(got, fmt.Sprintf("%s %v", r.Source, r.Fields))
	}
	want := []string{
		"wire.server [{lane 0} {op op} {reason queue_full}]",
		"wire.server [{lane 0} {op op} {reason deadline}]",
		"wire.server [{lane 0} {op op} {reason draining}]",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("shed records:\n got %q\nwant %q", got, want)
	}

	spans := map[string]int{}
	for _, s := range tr.Collector().Spans() {
		spans[fmt.Sprint(s.Name, s.Attrs[len(s.Attrs)-1])]++
	}
	wantSpans := map[string]int{
		"wire.dispatch{outcome ok}": 5, "wire.dispatch{outcome exception}": 1, "wire.shed{reason deadline}": 1,
	}
	if fmt.Sprint(spans) != fmt.Sprint(wantSpans) {
		t.Errorf("spans by outcome: %v, want %v", spans, wantSpans)
	}
}

// TestConservationUnderShutdown: callers that time out (and cancel), repeat
// one another's FT keys, send oneways and overflow a four-slot lane race a
// Shutdown. However each request ends, it ends once, in one outcome: the
// loopback's cleanup checks the ledger once every read loop has returned
// (a loop can still be settling a request it read just before Shutdown
// closed its connection).
func TestConservationUnderShutdown(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{Lanes: []LaneConfig{{Workers: 1, QueueLimit: 4}}},
		ClientConfig{Breaker: breaker.Config{Threshold: 1 << 20}})
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return req.Body, nil
	}))
	const callers, calls = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				opts := CallOptions{Timeout: time.Duration(1+(c+i)%4) * time.Millisecond}
				switch i % 3 {
				case 0:
					opts.ft = &FTRequest{Group: 1, Client: uint64(c % 2), Retention: uint32(i)}
				case 1:
					opts.Oneway = i%2 == 0
				}
				cli.Invoke("app/echo", "echo", []byte("x"), opts)
			}
		}(c)
	}
	waitCounter(t, srv.Registry(), "wire.server.requests", callers*calls/2, telemetry.L("lane", "0"))
	srv.Shutdown(2 * time.Second)
	wg.Wait()
}

// TestRequestSizeClass pins Request to the 208 B size class. One more word
// moves it to 224 B, which costs echo_small 16 bytes_per_op: a field added
// here prices itself, or reuses padding as settled does.
func TestRequestSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 208 {
		t.Errorf("Request is %d B, over the 208 B size class", n)
	}
}
