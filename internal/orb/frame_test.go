package orb

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/transport"
)

// Frame lifetime, made observable. The frame of every request goes back
// to the network's free list once the request is settled (DESIGN §12
// rule 1), so a use after release would normally show only when a later
// request happened to be encoded into the same buffer. For the whole
// test binary the release hook fills every frame with 0xDB as it goes
// back: whatever still looks at one reads poison, at once, in every test
// of the package. The hook also panics — failing whichever test does it,
// with the second releaser's stack — when a frame goes back twice.
var framesReleased atomic.Int64

func init() { netsim.FrameReleaseHook = poisonFrame }

// poisonFrame fills a released frame with 0xDB, after checking that it is
// not poison already. A frame handed out by Network.Frame holds a GIOP
// message by the time it goes back, so it starts with the magic; one
// that starts with poison went back twice with no encode between.
func poisonFrame(frame []byte) {
	if bytes.HasPrefix(frame, []byte{0xDB, 0xDB, 0xDB, 0xDB}) {
		panic("a frame was released twice")
	}
	for i := range frame {
		frame[i] = 0xDB
	}
	framesReleased.Add(1)
}

// releasedSince fails t unless exactly want frames went back since the
// release count read before.
func releasedSince(t *testing.T, before, want int64) {
	t.Helper()
	if got := framesReleased.Load() - before; got != want {
		t.Errorf("%d frames released, want %d", got, want)
	}
}

// TestFrameReleasedTwicePanics: the hook catches a second release of one
// frame, so a double release fails any test of the binary it happens in.
func TestFrameReleasedTwicePanics(t *testing.T) {
	frame := (&giop.CancelRequest{RequestID: 1}).Marshal(cdr.BigEndian)
	poisonFrame(frame)
	defer func() {
		if recover() == nil {
			t.Error("a second release of one frame went unnoticed")
		}
	}()
	poisonFrame(frame)
}

// largeBodyOf returns a 5 KiB body, four segments on the stream, whose
// bytes all read b.
func largeBodyOf(b byte) []byte { return bytes.Repeat([]byte{b}, 5<<10) }

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
	if f := r.net.Frame(); cap(f) < 5<<10 {
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

// TestOwnershipReleasedOnceEachFate: each request's frame goes back
// exactly once whatever settles it — executed, refused by the lane,
// shed for its deadline in the queue, cancelled while queued, addressed
// to no object, or expired on arrival. The small requests that fill the
// lane first are settled by then too, so their frames count as well.
func TestOwnershipReleasedOnceEachFate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		requests int // requests run sends, each settled once it returns
		// run invokes one large request on srv, behind ref, after
		// requests-1 small ones, and reports whether the large one met
		// the fate tc names.
		run func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool
	}{
		{"executed", 1, func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			var err error
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				_, err = r.client.Invoke(th, ref, "work", largeBodyOf(1))
			})
			r.k.RunUntil(time.Second)
			return err == nil
		}},
		{"refused", 3, func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			r.clientHost.Spawn("flood", 50, func(th *rtos.Thread) {
				_ = r.client.InvokeOneway(th, ref, "work", nil) // runs
				_ = r.client.InvokeOneway(th, ref, "work", nil) // queued
				_ = r.client.InvokeOneway(th, ref, "work", largeBodyOf(1))
			})
			r.k.RunUntil(5 * time.Second)
			return poa.Pool().Stats(0).Refused == 1
		}},
		{"shed", 2, func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
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
		{"cancelled", 2, func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
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
		{"bad-key", 1, func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
			var err error
			ghost := &ObjectRef{Addr: ref.Addr, Key: []byte("app/ghost")}
			r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
				_, err = r.client.Invoke(th, ghost, "work", largeBodyOf(1))
			})
			r.k.RunUntil(time.Second)
			return errors.Is(err, ErrObjectNotExist)
		}},
		{"expired-on-arrival", 1, func(r *rig, poa *POA, ref *ObjectRef, srv *blockerServant) bool {
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
			releasedSince(t, before, int64(tc.requests))
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
