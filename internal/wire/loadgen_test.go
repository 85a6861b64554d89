package wire

import (
	"sync/atomic"
	"testing"
	"time"
)

// slowInvoker answers every call after spinning on the CPU for spin, so
// the calls in flight compete with the generator's own goroutine for the
// processors and its schedule falls behind.
type slowInvoker struct {
	spin  time.Duration
	calls atomic.Int64
}

func (s *slowInvoker) Invoke(key, op string, body []byte, opts CallOptions) ([]byte, error) {
	s.calls.Add(1)
	for end := time.Now().Add(s.spin); time.Now().Before(end); {
	}
	return body, nil
}

// TestRunLoadOffersEverySlot: an open-loop class offers Hz × duration
// calls however late its loop wakes — a slot that has passed is issued,
// not skipped — and every offered call either ran or was dropped locally.
func TestRunLoadOffersEverySlot(t *testing.T) {
	const hz, d = 2000, 300 * time.Millisecond
	inv := &slowInvoker{spin: 2 * time.Millisecond}
	r := RunLoad(inv, d, []LoadClass{{Name: "BE", Hz: hz, Payload: 64}})[0]
	want := int64(hz * d / time.Second)
	if r.Offered < want-1 || r.Offered > want+1 {
		t.Errorf("offered %d calls in %v at %d Hz, want %d ± 1", r.Offered, d, hz, want)
	}
	if got := r.Completed + r.Errors["dropped_local"]; got != r.Offered || inv.calls.Load() != r.Completed {
		t.Errorf("offered %d: %d completed, %d dropped locally, %d reached the invoker",
			r.Offered, r.Completed, r.Errors["dropped_local"], inv.calls.Load())
	}
	if r.OK != r.Completed || r.Latency.P50 < 2 {
		t.Errorf("%d of %d calls ok, p50 %.3f ms: want all, each at least its 2 ms spin", r.OK, r.Completed, r.Latency.P50)
	}
}
