package orb

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/giop"
	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/transport"
)

// Frame lifetime, made observable. The frame of a large request goes back
// to the network's free list once the request is settled (DESIGN §12
// rule 1), so a use after release would normally show only when a later
// request happened to be encoded into the same buffer. For the whole
// test binary the release hook fills every frame with 0xDB as it goes
// back: whatever still looks at one reads poison, at once, in every test
// of the package.
var (
	framesReleased atomic.Int64
	// doubleReleases counts frames released while still poisoned. A
	// frame in use holds a GIOP message, so it starts with the magic; one
	// that starts with poison went back twice with no encode between.
	doubleReleases atomic.Int64
)

func init() {
	netsim.FrameReleaseHook = func(frame []byte) {
		if bytes.HasPrefix(frame, []byte{0xDB, 0xDB, 0xDB, 0xDB}) {
			doubleReleases.Add(1)
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		framesReleased.Add(1)
	}
}

// releasedSince fails t unless exactly want frames went back since the
// release count read before, none of them twice.
func releasedSince(t *testing.T, before, want int64) {
	t.Helper()
	if got := framesReleased.Load() - before; got != want {
		t.Errorf("%d frames released, want %d", got, want)
	}
	if n := doubleReleases.Load(); n != 0 {
		t.Errorf("%d frames were released twice", n)
	}
}

// largeBodyOf returns a body just over largeBody whose bytes all read b.
func largeBodyOf(b byte) []byte { return bytes.Repeat([]byte{b}, largeBody+1024) }

// TestFrameEchoRepliesIntact: a servant that returns req.Body without
// Retain gets its reply bytes through intact, because the reply is
// encoded before the frame goes back; each frame goes back once, and the
// calls after the first cycle through the one frame the first released.
func TestFrameEchoRepliesIntact(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("echo", &echoServant{})
	before := framesReleased.Load()
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		for i := byte(1); i <= 3; i++ {
			body := largeBodyOf(i)
			reply, err := r.client.Invoke(th, ref, "echo", body)
			if err != nil || !bytes.Equal(reply, body) {
				t.Errorf("call %d: err %v, reply intact %v", i, err, bytes.Equal(reply, body))
			}
		}
	})
	r.k.RunUntil(time.Second)
	releasedSince(t, before, 3)
	if f := r.net.Frame(); cap(f) < largeBody {
		t.Errorf("the network's free list holds a %d B frame after the calls, want the one they shared", cap(f))
	}
	if f := r.net.Frame(); f != nil {
		t.Errorf("the network's free list holds a second frame: the calls did not reuse the first")
	}
}

// TestRetainKeepsBody: a body kept after Retain survives the calls that
// follow; one kept without Retain reads poison once its frame is back —
// the frame was recycled and the hook is on.
func TestRetainKeepsBody(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	var retained, kept []byte
	calls := 0
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("keeper", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		calls++
		switch calls {
		case 1:
			req.Retain()
			retained = req.Body
		case 2:
			kept = req.Body
		}
		return nil, nil
	}))
	before := framesReleased.Load()
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		for i := byte(1); i <= 4; i++ {
			if _, err := r.client.Invoke(th, ref, "keep", largeBodyOf(i)); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})
	r.k.RunUntil(time.Second)
	if !bytes.Equal(retained, largeBodyOf(1)) {
		t.Error("a retained body changed after later calls")
	}
	if bytes.Equal(kept, largeBodyOf(2)) {
		t.Error("a body kept without Retain is intact: its frame was not recycled, or the poison hook is off")
	}
	releasedSince(t, before, 3)
}

// TestFrameFTNeverRecycled: the at-most-once cache keeps an FT request's
// reply, which an echo servant aliases to the request's body, so a
// retransmission answered from the cache after other large requests have
// cycled through the free list still gets the original bytes. Neither FT
// frame goes back; the plain request's does.
func TestFrameFTNeverRecycled(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	if _, err := poa.Activate("echo", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	order := r.server.cfg.ByteOrder
	request := func(id uint32, ft bool, body []byte) []byte {
		req := &giop.Request{RequestID: id, ResponseExpected: true, ObjectKey: []byte("app/echo"), Operation: "echo", Body: body}
		if ft {
			req.ServiceContexts = []giop.ServiceContext{giop.FTRequestContext(9, 77, 1, order)}
		}
		return req.Marshal(order)
	}
	conn := transport.NewEndpoint(r.net, r.client.ep.Node()).Dial(5555, r.server.Addr())
	before := framesReleased.Load()
	var replies [][]byte
	r.clientHost.Spawn("raw", 10, func(th *rtos.Thread) {
		// The original, a plain request whose frame is recycled, then the
		// retransmission of the original.
		for i, m := range [][]byte{request(1, true, largeBodyOf(1)), request(2, false, largeBodyOf(2)), request(3, true, largeBodyOf(1))} {
			conn.Send(&transport.Message{Data: m})
			msg, err := giop.Decode(conn.Recv(th.Proc()).Data)
			rep, ok := msg.(*giop.Reply)
			if err != nil || !ok || rep.Status != giop.StatusNoException {
				t.Errorf("request %d: %v, %#v", i+1, err, msg)
				return
			}
			replies = append(replies, rep.Body)
		}
	})
	r.k.RunUntil(time.Second)
	if len(replies) != 3 {
		t.Fatalf("%d replies, want 3", len(replies))
	}
	if !bytes.Equal(replies[2], largeBodyOf(1)) {
		t.Error("the cached reply to an FT request changed after a recycled frame went round")
	}
	releasedSince(t, before, 1)
}

// TestOwnershipReleasedOnceEachFate: a large request's frame goes back
// exactly once whatever settles it — executed, refused by the lane,
// shed for its deadline in the queue, cancelled while queued, addressed
// to no object, or expired on arrival.
func TestOwnershipReleasedOnceEachFate(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run invokes exactly one large request on srv, behind ref, and
		// reports whether it met the fate tc names.
		run func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool
	}{
		{"executed", func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			var err error
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				_, err = r.client.Invoke(th, ref, "work", largeBodyOf(1))
			})
			r.k.RunUntil(time.Second)
			return err == nil
		}},
		{"refused", func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			r.clientHost.Spawn("flood", 50, func(th *rtos.Thread) {
				_ = r.client.InvokeOneway(th, ref, "work", nil) // runs
				_ = r.client.InvokeOneway(th, ref, "work", nil) // queued
				_ = r.client.InvokeOneway(th, ref, "work", largeBodyOf(1))
			})
			r.k.RunUntil(5 * time.Second)
			return poa.Pool().Stats(0).Refused == 1
		}},
		{"shed", func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			var err error
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				_ = r.client.InvokeOneway(th, ref, "work", nil)
				th.Sleep(5 * time.Millisecond)
				_, err = r.client.InvokeOpt(th, ref, "work", largeBodyOf(1),
					InvokeOptions{Deadline: 50 * time.Millisecond, Priority: -1})
			})
			r.k.RunUntil(5 * time.Second)
			return errors.Is(err, ErrDeadlineExpired) && poa.Pool().Stats(0).Deadline == 1
		}},
		{"cancelled", func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			var err error
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				_ = r.client.InvokeOneway(th, ref, "work", nil)
				th.Sleep(5 * time.Millisecond)
				_, err = r.client.InvokeOpt(th, ref, "work", largeBodyOf(1),
					InvokeOptions{Timeout: 100 * time.Millisecond, Priority: -1})
			})
			r.k.RunUntil(5 * time.Second)
			return errors.Is(err, ErrTimeout) && srv.calls == 1
		}},
		{"bad-key", func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			var err error
			ghost := &ObjectRef{Addr: ref.Addr, Key: []byte("app/ghost")}
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				_, err = r.client.Invoke(th, ghost, "work", largeBodyOf(1))
			})
			r.k.RunUntil(time.Second)
			return errors.Is(err, ErrObjectNotExist)
		}},
		{"expired-on-arrival", func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			var err error
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				// The budget outlasts the client's send check but not
				// the marshalling and the link.
				_, err = r.client.InvokeOpt(th, ref, "work", largeBodyOf(1),
					InvokeOptions{Deadline: 30 * time.Microsecond, Priority: -1})
			})
			r.k.RunUntil(time.Second)
			return errors.Is(err, ErrDeadlineExpired) && poa.Pool().Stats(0).Deadline == 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Config{}, Config{})
			poa, _ := r.server.CreatePOA("app", POAConfig{
				Lanes: []rtcorba.LaneConfig{{Priority: 0, Threads: 1, QueueLimit: 1}},
			})
			srv := &blockerServant{delay: 200 * time.Millisecond}
			ref, _ := poa.Activate("obj", srv)
			before := framesReleased.Load()
			if !tc.run(r, poa, ref, srv) {
				t.Fatalf("the request did not meet the fate %q", tc.name)
			}
			releasedSince(t, before, 1)
		})
	}
}

// The body passed to Invoke is the caller's again when the call returns,
// also on the collocated path, where a oneway's servant runs after it.
func TestOwnershipCollocatedOnewayBody(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	var got []byte
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("obj", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		got = append([]byte(nil), req.Body...)
		return nil, nil
	}))
	r.serverHost.Spawn("local", 10, func(th *rtos.Thread) {
		body := largeBodyOf(1)
		if err := r.server.InvokeOneway(th, ref, "fire", body); err != nil {
			t.Errorf("oneway: %v", err)
		}
		copy(body, largeBodyOf(2)) // the caller reuses its buffer
	})
	r.k.RunUntil(time.Second)
	if !bytes.Equal(got, largeBodyOf(1)) {
		t.Error("a collocated oneway's servant saw the caller's later writes to the body")
	}
}
