package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// The overload experiment drives the UAV service pipeline past
// saturation and measures how the overload-protection stack degrades:
// banded thread-pool lanes insulate flight-critical commands from a
// telemetry flood, end-to-end deadlines shed work that cannot be served
// in time, and the client-side circuit breaker routes group traffic
// around the saturated replica until load drops.
//
// Three traffic strands share two replica servers:
//
//   - commands: high-band (CORBA priority 20000) synchronous calls at a
//     modest rate with a tight deadline, straight at the primary.
//   - telemetry: low-band oneway flood at the primary, 0.5x the low
//     lane's capacity in the nominal phases and 2x during the overload
//     window, every message carrying a deadline.
//   - ops: group-reference invocations below the telemetry's priority,
//     so the saturated primary refuses or evicts them; they fail over
//     to the backup and drive the client's circuit breaker.
const (
	overloadHighPrio rtcorba.Priority = 20000
	// overloadLowPrio is the telemetry band: above ops (0) within the
	// same lane, so a sustained flood evicts queued ops requests.
	overloadLowPrio rtcorba.Priority = 100
	// overloadWork is the servant's per-request CPU cost; one lane
	// thread therefore saturates at 250 requests/s.
	overloadWork = 4 * time.Millisecond
	// overloadHighDeadline is the command strand's end-to-end budget.
	overloadHighDeadline = 40 * time.Millisecond
	// overloadLowDeadline rides every telemetry message: at the lane's
	// admission watermark the queue is worth ~48ms, so a sustained flood
	// sheds from the queue tail by deadline as well as by admission.
	overloadLowDeadline = 40 * time.Millisecond
)

// OverloadBucket is one sampling interval of the degradation timeline.
type OverloadBucket struct {
	At         time.Duration // bucket end (virtual time)
	Phase      string
	LowOffered int64 // telemetry messages offered in this bucket
	LowServed  int64
	LowShed    int64 // refused + evicted + deadline-expired
	HighOK     int
	HighMax    time.Duration // worst command latency in the bucket
	QueueDepth int           // primary low-lane depth at sample time
	Breaker    orb.BreakerState
}

// OverloadResult is the measured outcome of the overload scenario.
type OverloadResult struct {
	Duration          time.Duration
	WarmEnd, OverEnd  time.Duration
	HighDeadline      time.Duration
	HighSent, HighOK  int
	HighFailed        int
	HighOver          metrics.Summary // command latency during the overload window
	LowOffered        int64
	LowServed         int64
	LowRefused        int64
	LowShedDeadline   int64
	LowShedEvicted    int64
	ShedRate          float64 // (refused + shed) / offered over the whole run
	OpsOK             int
	OpsOverload       int
	OpsDeadline       int
	OpsFailed         int
	Breaker           []orb.BreakerTransition
	BreakerOpened     bool
	BreakerReclosed   bool
	PrimaryQueueFinal int
	Timeline          []OverloadBucket
}

// overloadBucketLen is the timeline sampling interval.
const overloadBucketLen = 500 * time.Millisecond

// RunOverload executes the scenario. Duration defaults to 9s split into
// equal nominal / 2x-overload / recovery phases.
func RunOverload(opt Options) OverloadResult {
	dur := opt.duration(9 * time.Second)
	warmEnd := dur / 3
	overEnd := 2 * dur / 3

	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	loadm := sys.AddMachine("load", rtos.HostConfig{})
	s1 := sys.AddMachine("s1", rtos.HostConfig{})
	s2 := sys.AddMachine("s2", rtos.HostConfig{})
	spec := core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond}
	sys.Link("cli", "s1", spec)
	sys.Link("cli", "s2", spec)
	sys.Link("load", "s1", spec)

	cliORB := cli.ORB(orb.Config{
		BreakerThreshold: 3,
		BreakerCooldown:  500 * time.Millisecond,
	})
	loadORB := loadm.ORB(orb.Config{})

	lanes := []rtcorba.LaneConfig{
		{Priority: 0, Threads: 1, QueueLimit: 16, HighWatermark: 12},
		{Priority: overloadHighPrio, Threads: 1, QueueLimit: 16, HighWatermark: 12},
	}
	servant := orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		req.Thread.Compute(overloadWork)
		return req.Body, nil
	})
	activate := func(m *core.Machine) (*orb.POA, *orb.ObjectRef) {
		o := m.ORB(orb.Config{})
		poa, err := o.CreatePOA("uav", orb.POAConfig{
			Model: rtcorba.ClientPropagated,
			Lanes: append([]rtcorba.LaneConfig(nil), lanes...),
		})
		if err != nil {
			panic(err)
		}
		ref, err := poa.Activate("svc", servant)
		if err != nil {
			panic(err)
		}
		return poa, ref
	}
	poa1, ref1 := activate(s1)
	_, ref2 := activate(s2)

	gm := ft.NewGroupManager()
	g, err := gm.CreateGroup(ref1, ref2)
	if err != nil {
		panic(err)
	}
	groupRef := g.Ref()

	r := OverloadResult{
		Duration:     dur,
		WarmEnd:      warmEnd,
		OverEnd:      overEnd,
		HighDeadline: overloadHighDeadline,
	}
	highLat := metrics.NewSeries("command latency")

	// Flight-critical commands: high band, tight deadline, primary only.
	cli.Host.Spawn("commands", 50, func(th *rtos.Thread) {
		for th.Now() < sim.Time(dur) {
			r.HighSent++
			start := th.Now()
			_, err := cliORB.InvokeOpt(th, ref1, "command", nil, orb.InvokeOptions{
				Priority: overloadHighPrio,
				Deadline: overloadHighDeadline,
			})
			if err == nil {
				r.HighOK++
				highLat.AddDuration(th.Now(), time.Duration(th.Now()-start))
			} else {
				r.HighFailed++
			}
			th.Sleep(20 * time.Millisecond)
		}
	})

	// Telemetry flood: low band oneways at the primary, 2x the lane's
	// capacity during the overload window.
	loadm.Host.Spawn("telemetry", 30, func(th *rtos.Thread) {
		for th.Now() < sim.Time(dur) {
			r.LowOffered++
			_, _ = loadORB.InvokeOpt(th, ref1, "telemetry", nil, orb.InvokeOptions{
				Oneway:   true,
				Priority: overloadLowPrio,
				Deadline: overloadLowDeadline,
			})
			interval := 8 * time.Millisecond // 125/s: half capacity
			if th.Now() >= sim.Time(warmEnd) && th.Now() < sim.Time(overEnd) {
				interval = 2 * time.Millisecond // 500/s: 2x capacity
			}
			th.Sleep(interval)
		}
	})

	// Ops traffic on the group reference: sheds at the primary turn into
	// failovers to the backup, and consecutive rejections open the
	// client's circuit for the primary endpoint.
	cli.Host.Spawn("ops", 40, func(th *rtos.Thread) {
		for th.Now() < sim.Time(dur) {
			_, err := cliORB.InvokeOpt(th, groupRef, "ops", nil, orb.InvokeOptions{
				Priority: 0,
				Deadline: 150 * time.Millisecond,
			})
			switch {
			case err == nil:
				r.OpsOK++
			case errors.Is(err, orb.ErrOverload):
				r.OpsOverload++
			case errors.Is(err, orb.ErrDeadlineExpired):
				r.OpsDeadline++
			default:
				r.OpsFailed++
			}
			th.Sleep(50 * time.Millisecond)
		}
	})

	// Degradation timeline: sample counters at fixed intervals.
	phase := func(at time.Duration) string {
		switch {
		case at <= warmEnd:
			return "nominal"
		case at <= overEnd:
			return "2x overload"
		default:
			return "recovery"
		}
	}
	var prevOffered, prevServed, prevShed int64
	for bt := overloadBucketLen; bt <= dur; bt += overloadBucketLen {
		bt := bt
		sys.K.At(sim.Time(bt), func() {
			pool := poa1.Pool()
			st := pool.Stats(0)
			served := st.Served
			shed := st.Refused + st.Evicted + st.Deadline
			b := OverloadBucket{
				At:         bt,
				Phase:      phase(bt),
				LowOffered: r.LowOffered - prevOffered,
				LowServed:  served - prevServed,
				LowShed:    shed - prevShed,
				QueueDepth: pool.QueueDepth(0),
				Breaker:    cliORB.BreakerState(ref1.Addr),
			}
			win := highLat.Window(sim.Time(bt-overloadBucketLen), sim.Time(bt)).Summarize()
			b.HighOK = win.N
			b.HighMax = time.Duration(win.Max * float64(time.Second))
			prevOffered, prevServed, prevShed = r.LowOffered, served, shed
			r.Timeline = append(r.Timeline, b)
		})
	}

	sys.RunUntil(sim.Time(dur + 500*time.Millisecond))

	pool := poa1.Pool()
	st := pool.Stats(0)
	r.LowServed, r.LowRefused = st.Served, st.Refused
	r.LowShedDeadline, r.LowShedEvicted = st.Deadline, st.Evicted
	if r.LowOffered > 0 {
		r.ShedRate = float64(st.Refused+st.Evicted+st.Deadline) / float64(r.LowOffered)
	}
	r.PrimaryQueueFinal = pool.QueueDepth(0)
	r.HighOver = highLat.Window(sim.Time(warmEnd), sim.Time(overEnd)).Summarize()
	r.Breaker = cliORB.BreakerTransitions()
	for _, tr := range r.Breaker {
		if tr.To == orb.BreakerOpen {
			r.BreakerOpened = true
		}
	}
	r.BreakerReclosed = r.BreakerOpened && cliORB.BreakerState(ref1.Addr) == orb.BreakerClosed
	return r
}

// HighP99 returns the command strand's p99 latency during overload.
func (r OverloadResult) HighP99() time.Duration {
	return time.Duration(r.HighOver.P99 * float64(time.Second))
}

// RenderTimeline prints the sampled degradation timeline.
func (r OverloadResult) RenderTimeline() string {
	tb := metrics.NewTable("Degradation timeline (500ms buckets)",
		"t", "phase", "low offered", "low served", "low shed", "high ok", "high max", "queue", "breaker")
	for _, b := range r.Timeline {
		tb.AddRow(
			fmt.Sprint(b.At),
			b.Phase,
			fmt.Sprint(b.LowOffered),
			fmt.Sprint(b.LowServed),
			fmt.Sprint(b.LowShed),
			fmt.Sprint(b.HighOK),
			metrics.FormatDuration(b.HighMax),
			fmt.Sprint(b.QueueDepth),
			b.Breaker.String(),
		)
	}
	return tb.Render()
}

// Render prints the degradation report.
func (r OverloadResult) Render() string {
	tb := metrics.NewTable(
		fmt.Sprintf("Overload — 2x saturation in [%v, %v) of %v", r.WarmEnd, r.OverEnd, r.Duration),
		"Strand", "Offered", "OK", "Shed", "Detail")
	tb.AddRow("commands (high band)",
		fmt.Sprint(r.HighSent), fmt.Sprint(r.HighOK), fmt.Sprint(r.HighFailed),
		fmt.Sprintf("overload p99 %v (deadline %v)", metrics.FormatDuration(r.HighP99()), r.HighDeadline))
	tb.AddRow("telemetry (low band)",
		fmt.Sprint(r.LowOffered), fmt.Sprint(r.LowServed),
		fmt.Sprint(r.LowRefused+r.LowShedDeadline+r.LowShedEvicted),
		fmt.Sprintf("refused %d, deadline %d, evicted %d (shed rate %s)",
			r.LowRefused, r.LowShedDeadline, r.LowShedEvicted, metrics.FormatPercent(r.ShedRate)))
	tb.AddRow("ops (group ref)",
		fmt.Sprint(r.OpsOK+r.OpsOverload+r.OpsDeadline+r.OpsFailed), fmt.Sprint(r.OpsOK),
		fmt.Sprint(r.OpsOverload+r.OpsDeadline+r.OpsFailed),
		fmt.Sprintf("overload %d, deadline %d, other %d", r.OpsOverload, r.OpsDeadline, r.OpsFailed))
	out := tb.Render()
	out += "\n  circuit breaker (primary endpoint):\n"
	if len(r.Breaker) == 0 {
		out += "    no transitions\n"
	}
	for _, tr := range r.Breaker {
		out += fmt.Sprintf("    t=%-8v %v: %v -> %v\n", time.Duration(tr.At), tr.Addr, tr.From, tr.To)
	}
	verdict := "did not open"
	if r.BreakerOpened && r.BreakerReclosed {
		verdict = "opened under overload and re-closed after recovery"
	} else if r.BreakerOpened {
		verdict = "opened under overload, still open"
	}
	out += fmt.Sprintf("    verdict: %s\n", verdict)
	return out
}
