package experiments

import (
	"errors"
	"fmt"
	"strings"
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
	Seed              int64
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
		Seed:         opt.seed(),
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

// highWithin reports whether the command strand's overload p99 stayed
// within its deadline.
func (r OverloadResult) highWithin() bool { return r.HighP99() <= r.HighDeadline }

// Render prints the overload report: the sampled degradation timeline,
// the per-strand table, the breaker transition log and the acceptance
// summary.
func (r OverloadResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qosoverload: 2x lane saturation in [%v, %v) of %v (seed %d)\n\n",
		r.WarmEnd, r.OverEnd, r.Duration, r.Seed)

	tl := metrics.NewTable("Degradation timeline (500ms buckets)",
		"t", "phase", "low offered", "low served", "low shed", "high ok", "high max", "queue", "breaker")
	for _, bk := range r.Timeline {
		tl.AddRow(
			fmt.Sprint(bk.At),
			bk.Phase,
			fmt.Sprint(bk.LowOffered),
			fmt.Sprint(bk.LowServed),
			fmt.Sprint(bk.LowShed),
			fmt.Sprint(bk.HighOK),
			metrics.FormatDuration(bk.HighMax),
			fmt.Sprint(bk.QueueDepth),
			bk.Breaker.String(),
		)
	}
	b.WriteString(tl.Render())
	b.WriteString("\n")

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
	b.WriteString(tb.Render())
	b.WriteString("\n  circuit breaker (primary endpoint):\n")
	if len(r.Breaker) == 0 {
		b.WriteString("    no transitions\n")
	}
	for _, tr := range r.Breaker {
		fmt.Fprintf(&b, "    t=%-8v %v: %v -> %v\n", time.Duration(tr.At), tr.Addr, tr.From, tr.To)
	}
	verdict := "did not open"
	if r.BreakerOpened && r.BreakerReclosed {
		verdict = "opened under overload and re-closed after recovery"
	} else if r.BreakerOpened {
		verdict = "opened under overload, still open"
	}
	fmt.Fprintf(&b, "    verdict: %s\n", verdict)

	b.WriteString("\nacceptance:\n")
	within := "EXCEEDS"
	if r.highWithin() {
		within = "within"
	}
	fmt.Fprintf(&b, "  high-band p99 under overload   %v (%s deadline %v)\n", r.HighP99(), within, r.HighDeadline)
	fmt.Fprintf(&b, "  high-band failures             %d of %d\n", r.HighFailed, r.HighSent)
	fmt.Fprintf(&b, "  low-band shed rate             %.1f%% (%d of %d offered; queue bounded, final depth %d)\n",
		100*r.ShedRate, r.LowRefused+r.LowShedDeadline+r.LowShedEvicted, r.LowOffered, r.PrimaryQueueFinal)
	breakerVerdict := "never opened"
	switch {
	case r.BreakerOpened && r.BreakerReclosed:
		breakerVerdict = "opened on the saturated primary, re-closed after load dropped"
	case r.BreakerOpened:
		breakerVerdict = "opened on the saturated primary, still open"
	}
	fmt.Fprintf(&b, "  circuit breaker                %s (%d transitions)\n", breakerVerdict, len(r.Breaker))
	fmt.Fprintf(&b, "  ops availability               %d ok, %d overload, %d deadline, %d other\n",
		r.OpsOK, r.OpsOverload, r.OpsDeadline, r.OpsFailed)
	return b.String()
}

// Checks states the acceptance verdicts as claims: the high band's
// overload p99 stays within its deadline, and the breaker opens on the
// saturated primary and re-closes after the load drops.
func (r OverloadResult) Checks() []metrics.Check {
	return []metrics.Check{
		{Experiment: "Overload", Claim: "the high band's p99 under 2x saturation stays within its deadline",
			OK: r.highWithin(), Detail: fmt.Sprintf("p99 %v (deadline %v)", r.HighP99(), r.HighDeadline)},
		{Experiment: "Overload", Claim: "the breaker opens on the saturated primary and re-closes after the load drops",
			OK: r.BreakerOpened && r.BreakerReclosed, Detail: fmt.Sprintf("opened %v, re-closed %v (%d transitions)", r.BreakerOpened, r.BreakerReclosed, len(r.Breaker))},
	}
}
