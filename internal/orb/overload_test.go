package orb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/transport"
)

// blockerServant occupies the pool thread for a fixed compute time.
type blockerServant struct {
	delay time.Duration
	calls int
}

func (s *blockerServant) Dispatch(req *ServerRequest) ([]byte, error) {
	s.calls++
	req.Thread.Compute(s.delay)
	return req.Body, nil
}

// TestOverloadReplyClassified pins the outcome taxonomy: a request
// refused by a saturated lane comes back as ErrOverload — distinctly not
// a crash timeout — and it comes back fast (the replica answered).
func TestOverloadReplyClassified(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &blockerServant{delay: time.Second}
	poa, _ := r.server.CreatePOA("app", POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1, QueueLimit: 1}},
	})
	ref, _ := poa.Activate("obj", srv)

	// Two oneways saturate the lane: one running, one queued.
	r.clientHost.Spawn("flood", 50, func(th *rtos.Thread) {
		_ = r.client.InvokeOneway(th, ref, "work", nil)
		_ = r.client.InvokeOneway(th, ref, "work", nil)
	})
	var callErr error
	var elapsed sim.Time
	r.clientHost.Spawn("caller", 40, func(th *rtos.Thread) {
		th.Sleep(10 * time.Millisecond) // let the flood land first
		start := th.Now()
		_, callErr = r.client.InvokeOpt(th, ref, "work", nil,
			InvokeOptions{Timeout: 500 * time.Millisecond, Priority: -1})
		elapsed = th.Now() - start
	})
	r.k.RunUntil(5 * time.Second)

	if !errors.Is(callErr, ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload", callErr)
	}
	if errors.Is(callErr, ErrTimeout) || errors.Is(callErr, ErrTransient) {
		t.Fatalf("overload reply classified as %v", callErr)
	}
	// The shed reply is a round trip, not a timeout expiry.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("overload rejection took %v, want a fast reply", elapsed)
	}
	if got := poa.Pool().Stats(0).Refused; got != 1 {
		t.Fatalf("server refused count = %d, want 1", got)
	}
}

// TestDeadlineExpiredAtClient pins client-side deadline enforcement: a
// reply that cannot arrive inside the budget yields ErrDeadlineExpired
// at (not after) the deadline.
func TestDeadlineExpiredAtClient(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("obj", &blockerServant{delay: 300 * time.Millisecond})

	var callErr error
	var elapsed sim.Time
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		start := th.Now()
		_, callErr = r.client.InvokeOpt(th, ref, "work", nil,
			InvokeOptions{Deadline: 50 * time.Millisecond, Priority: -1})
		elapsed = th.Now() - start
	})
	r.k.RunUntil(2 * time.Second)

	if !errors.Is(callErr, ErrDeadlineExpired) {
		t.Fatalf("err = %v, want ErrDeadlineExpired", callErr)
	}
	if errors.Is(callErr, ErrTimeout) {
		t.Fatalf("deadline miss classified as crash timeout: %v", callErr)
	}
	if elapsed < 45*time.Millisecond || elapsed > 60*time.Millisecond {
		t.Fatalf("deadline miss surfaced after %v, want ~50ms", elapsed)
	}
}

// TestDeadlineShedInServerLane pins server-side enforcement: a request
// whose budget expires while queued behind a long dispatch is shed by
// the lane (visible in the pool's shed counter), never executed.
func TestDeadlineShedInServerLane(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	blocker := &blockerServant{delay: 200 * time.Millisecond}
	fast := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{
		Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1, QueueLimit: 8}},
	})
	blockRef, _ := poa.Activate("blocker", blocker)
	fastRef, _ := poa.Activate("fast", fast)

	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		// Occupy the lane thread for 200ms, then invoke with a 50ms
		// budget: the request queues, expires at 50ms, and is shed when
		// the thread frees up.
		_ = r.client.InvokeOneway(th, blockRef, "work", nil)
		th.Sleep(5 * time.Millisecond)
		_, callErr = r.client.InvokeOpt(th, fastRef, "work", nil,
			InvokeOptions{Deadline: 50 * time.Millisecond, Priority: -1})
	})
	r.k.RunUntil(2 * time.Second)

	if !errors.Is(callErr, ErrDeadlineExpired) {
		t.Fatalf("err = %v, want ErrDeadlineExpired", callErr)
	}
	if fast.calls != 0 {
		t.Fatalf("expired request executed %d times, want shed", fast.calls)
	}
	if got := poa.Pool().Stats(0).Deadline; got != 1 {
		t.Fatalf("server ShedDeadline = %d, want 1", got)
	}
}

// TestProtocolErrorClassified pins the third outcome class: a peer that
// answers with GIOP MessageError (or undecodable bytes) fails the
// pending call with ErrProtocol immediately — no timeout burned, and
// clearly not an overload or a crash.
func TestProtocolErrorClassified(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"message-error", (&giop.MessageError{}).Marshal(cdr.LittleEndian)},
		{"corrupt-bytes", []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Config{}, Config{ListenPort: 9999})
			// A rogue endpoint on the server host: answers every inbound
			// message with the configured junk instead of a Reply.
			rogue := transport.NewEndpoint(r.net, r.server.ep.Node())
			lis := rogue.Listen(4444)
			r.serverHost.Spawn("rogue", 50, func(th *rtos.Thread) {
				conn := lis.Accept(th.Proc())
				for {
					conn.Recv(th.Proc())
					conn.Send(&transport.Message{Data: tc.reply})
				}
			})
			ref := &ObjectRef{Addr: rogue.Addr(4444), Key: []byte("app/obj")}

			var callErr error
			var elapsed sim.Time
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				start := th.Now()
				_, callErr = r.client.InvokeOpt(th, ref, "work", nil,
					InvokeOptions{Timeout: time.Second, Priority: -1})
				elapsed = th.Now() - start
			})
			r.k.RunUntil(5 * time.Second)

			if !errors.Is(callErr, ErrProtocol) {
				t.Fatalf("err = %v, want ErrProtocol", callErr)
			}
			if elapsed > 100*time.Millisecond {
				t.Fatalf("protocol error surfaced after %v, want immediately", elapsed)
			}
		})
	}
}

// TestDeadlineBoundsFailoverLoop pins the end-to-end budget: the
// failover retry loop stops the moment the deadline passes instead of
// walking every profile of a dead group.
func TestDeadlineBoundsFailoverLoop(t *testing.T) {
	r := newFTRig(t, 2, Config{AttemptTimeout: 100 * time.Millisecond})
	var refs [2]*ObjectRef
	for i := range refs {
		refs[i] = r.activate(t, i, &echoServant{})
	}
	ref := groupRef(5, refs[0], refs[1])
	r.crash(0)
	r.crash(1)

	var callErr error
	var elapsed sim.Time
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		start := th.Now()
		_, callErr = r.client.InvokeOpt(th, ref, "work", nil,
			InvokeOptions{Deadline: 250 * time.Millisecond, Priority: -1})
		elapsed = th.Now() - start
	})
	r.k.RunUntil(5 * time.Second)

	if !errors.Is(callErr, ErrDeadlineExpired) {
		t.Fatalf("err = %v, want ErrDeadlineExpired", callErr)
	}
	// Budget 250ms, not 4 × 100ms of attempts (twice the two profiles).
	if elapsed > 300*time.Millisecond {
		t.Fatalf("dead group burned %v, want bounded by the 250ms deadline", elapsed)
	}
}
