//go:build !race

package orb

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/rtos"
)

// Once a rig is warm (connection up, queues and the network's free
// lists at their working size), a sim invocation costs only its small
// objects: neither its request frame nor anything for its segments and
// their acks. What is left of a 5 KiB oneway is
//   - the ClientRequestInfo the interceptors see;
//   - the transport.Message carrying the request frame;
//   - the decoded request's service-context slice (the giop.Request is
//     decoded on the server reader's stack, and its operation name is the
//     previous request's string again);
//   - the serverCall record: the ServerRequest, its ServerRequestInfo
//     and the lane job in one object.
//
// (The race detector allocates on its own account, so the pins exist
// only in an ordinary build.)

// costPerCall runs one invocation of body every 10 ms for 2 s on a warm
// rig and returns the objects and bytes allocated per call.
func costPerCall(t *testing.T, oneway bool, body []byte) (objects, bytes uint64) {
	t.Helper()
	r := newRig(t, Config{}, Config{})
	defer r.k.Close()
	calls := 0
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("sink", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		calls++
		return nil, nil
	}))
	r.clientHost.Spawn("sender", 50, func(th *rtos.Thread) {
		for {
			var err error
			if oneway {
				err = r.client.InvokeOneway(th, ref, "frame", body)
			} else {
				_, err = r.client.Invoke(th, ref, "frame", body)
			}
			if err != nil {
				t.Error(err)
				return
			}
			th.Sleep(10 * time.Millisecond)
		}
	})
	r.k.RunUntil(time.Second) // warm: connection, queues, free lists
	warm := calls
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.k.RunUntil(3 * time.Second)
	runtime.ReadMemStats(&m1)
	n := calls - warm
	if n < 190 {
		t.Fatalf("%d calls served in 2 s, want one per 10 ms", n)
	}
	return (m1.Mallocs - m0.Mallocs) / uint64(n), (m1.TotalAlloc - m0.TotalAlloc) / uint64(n)
}

// TestAllocBudgetSimFrame: a warm 5 KiB oneway between two ORBs costs
// at most 4 objects and less than 1 KiB, the objects listed above.
func TestAllocBudgetSimFrame(t *testing.T) {
	objects, bytes := costPerCall(t, true, make([]byte, 5<<10))
	if bytes >= 1<<10 {
		t.Errorf("%d B allocated per 5 KiB oneway, want < 1 KiB: the request frame or its segments are not recycled", bytes)
	}
	if objects > 4 {
		t.Errorf("%d objects allocated per 5 KiB oneway, want <= 4", objects)
	}
	t.Logf("%d objects, %d B per 5 KiB oneway", objects, bytes)
}

// TestAllocBudgetSimTwoWay: a warm 64 B two-way call adds to the
// oneway's objects the caller's pendingCall, its signal and the signal's
// waiter ring, and the reply: its frame, its transport.Message and the
// decoded giop.Reply.
func TestAllocBudgetSimTwoWay(t *testing.T) {
	objects, bytes := costPerCall(t, false, make([]byte, 64))
	if objects > 10 {
		t.Errorf("%d objects allocated per two-way call, want <= 10", objects)
	}
	t.Logf("%d objects, %d B per two-way call", objects, bytes)
}
