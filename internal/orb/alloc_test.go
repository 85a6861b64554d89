//go:build !race

package orb

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/rtos"
)

// TestAllocBudgetSimFrame: once the network's free list holds a frame, a
// 5 KiB oneway between two ORBs costs only its small objects, 1.4 KB —
// the invocation record, four segment and four ack records, the
// delivered and decoded message, the dispatch and its closures — and
// not its 5.4 KB frame. (The race detector allocates on its own account,
// so the pin exists only in an ordinary build.)
func TestAllocBudgetSimFrame(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	defer r.k.Close()
	calls := 0
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("sink", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		calls++
		return nil, nil
	}))
	body := make([]byte, 5<<10)
	r.clientHost.Spawn("sender", 50, func(th *rtos.Thread) {
		for {
			if err := r.client.InvokeOneway(th, ref, "frame", body); err != nil {
				t.Error(err)
				return
			}
			th.Sleep(10 * time.Millisecond)
		}
	})
	r.k.RunUntil(time.Second) // warm: connection, queues, free list
	warm := calls
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.k.RunUntil(3 * time.Second)
	runtime.ReadMemStats(&m1)
	n := calls - warm
	if n < 190 {
		t.Fatalf("%d oneways delivered in 2 s, want one per 10 ms", n)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / uint64(n); per >= 2<<10 {
		t.Errorf("%d B allocated per 5 KiB oneway, want < 2 KiB: the request frame is not recycled", per)
	} else {
		t.Logf("%d B allocated per 5 KiB oneway", per)
	}
}
