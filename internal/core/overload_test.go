package core

import (
	"sort"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// TestLaneShedsProtectHighBand reproduces the Figure 5 workload shape at
// the middleware layer: a sustained low-priority flood plus a bursty
// high-priority stream sharing one server. With banded lanes and
// admission control, the high band's p99 latency must stay within a
// tight bound while the low band visibly degrades (admission refusals
// and deadline sheds) instead of queueing without limit.
func TestLaneShedsProtectHighBand(t *testing.T) {
	const (
		work         = 4 * time.Millisecond // low lane saturates at 250/s
		lowDeadline  = 40 * time.Millisecond
		highPrio     = rtcorba.Priority(20000)
		dur          = 5 * time.Second
		burstSize    = 5
		burstPeriod  = 100 * time.Millisecond
		highP99Bound = 30 * time.Millisecond
	)
	sys := NewSystem(42)
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	srv := sys.AddMachine("srv", rtos.HostConfig{})
	sys.Link("cli", "srv", LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond})

	cliORB := cli.ORB(orb.Config{})
	srvORB := srv.ORB(orb.Config{})
	poa, err := srvORB.CreatePOA("app", orb.POAConfig{
		Model: rtcorba.ClientPropagated,
		Lanes: []rtcorba.LaneConfig{
			{Priority: 0, Threads: 1, QueueLimit: 16, HighWatermark: 12},
			{Priority: highPrio, Threads: 1, QueueLimit: 16, HighWatermark: 12},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := poa.Activate("svc", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		req.Thread.Compute(work)
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}

	// Low-band flood at 2x the lane's capacity, every message carrying a
	// deadline so queue-expired work is shed rather than served late.
	var lowOffered int64
	cli.Host.Spawn("flood", 30, func(th *rtos.Thread) {
		for th.Now() < sim.Time(dur) {
			lowOffered++
			_, _ = cliORB.InvokeOpt(th, ref, "telemetry", nil, orb.InvokeOptions{
				Oneway:   true,
				Priority: 0,
				Deadline: lowDeadline,
			})
			th.Sleep(2 * time.Millisecond) // 500/s
		}
	})

	// Bursty high band: 5 back-to-back synchronous commands every 100ms
	// (50/s average, arriving in clumps as Figure 5's bursty senders do).
	var highLats []time.Duration
	highFailed := 0
	cli.Host.Spawn("bursts", 50, func(th *rtos.Thread) {
		for th.Now() < sim.Time(dur) {
			burstStart := th.Now()
			for i := 0; i < burstSize; i++ {
				start := th.Now()
				_, err := cliORB.InvokeOpt(th, ref, "command", nil, orb.InvokeOptions{
					Priority: highPrio,
				})
				if err != nil {
					highFailed++
					continue
				}
				highLats = append(highLats, time.Duration(th.Now()-start))
			}
			next := burstStart + sim.Time(burstPeriod)
			if th.Now() < next {
				th.Sleep(time.Duration(next - th.Now()))
			}
		}
	})

	sys.RunUntil(sim.Time(dur) + 500*time.Millisecond)

	// High band: everything served, p99 within the bound.
	if highFailed != 0 {
		t.Errorf("high band: %d commands failed", highFailed)
	}
	if len(highLats) == 0 {
		t.Fatal("no high-band samples")
	}
	sort.Slice(highLats, func(i, j int) bool { return highLats[i] < highLats[j] })
	p99 := highLats[len(highLats)*99/100]
	if p99 > highP99Bound {
		t.Errorf("high band p99 = %v, want <= %v under low-band flood", p99, highP99Bound)
	}
	if hi := poa.Pool().Stats(1); hi.Refused != 0 || hi.Evicted+hi.Deadline != 0 {
		t.Errorf("high lane shed work: refused=%d shed=%d", hi.Refused, hi.Evicted+hi.Deadline)
	}

	// Low band: degraded, with both shedding mechanisms engaged, and the
	// lane queue bounded.
	pool := poa.Pool()
	st := pool.Stats(0)
	shed := st.Refused + st.Evicted + st.Deadline
	if shed == 0 {
		t.Fatal("low band was not shed despite 2x overload")
	}
	if st.Refused == 0 {
		t.Error("no admission refusals at the watermark")
	}
	if st.Deadline == 0 {
		t.Error("no deadline sheds from the lane queue")
	}
	rate := float64(shed) / float64(lowOffered)
	if rate < 0.2 {
		t.Errorf("shed rate %.2f too low for a 2x overload", rate)
	}
	if pool.QueueDepth(0) > 16 {
		t.Errorf("low lane queue depth %d exceeds its limit", pool.QueueDepth(0))
	}
	// Conservation: every offered message is accounted for.
	accounted := st.Served + shed + int64(pool.QueueDepth(0))
	if accounted < lowOffered {
		t.Errorf("accounting hole: offered %d, accounted %d", lowOffered, accounted)
	}
}
