package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/avstreams"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/quo"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
)

// The failover experiment is the fault-tolerance acceptance scenario: a
// three-replica object group serving invocation traffic and a
// replicated A/V sink, whose primary host is crash-stopped mid-stream.
// A heartbeat monitor declares the primary dead, a QuO contract moves to
// its degraded region, the stream retargets to the first live backup
// and group invocations fail over. With recovery, the primary revives
// halfway through the remainder and the contract returns to normal.
const (
	// failoverPeriod is the heartbeat detector period; detection is
	// bounded by 1.5 periods and stream failover by 2.
	failoverPeriod = 100 * time.Millisecond
	failoverCrash  = 2 * time.Second
	failoverDur    = 4 * time.Second
)

// FailoverResult is the measured outcome of the failover scenario.
type FailoverResult struct {
	Seed    int64
	Recover bool
	// Timeline holds the rendered recovery events in virtual-time order.
	Timeline []string

	InvokeOK, InvokeFailed int
	Frames                 [3]int64 // frames delivered per replica
	FailoverSpans          int
	// Detection is the time from the crash to the DEAD verdict and
	// StreamFailover the time to the first frame on the backup; each is
	// 0 if it never happened.
	Detection      time.Duration
	StreamFailover time.Duration
	FinalRegion    string
}

// RunFailover executes the scenario, reviving the primary when revive
// is set.
func RunFailover(opt Options, revive bool) FailoverResult {
	seed := opt.seed()
	sys := core.NewSystem(seed)
	defer sys.Close()
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	names := []string{"s1", "s2", "s3"}
	var machines []*core.Machine
	for _, n := range names {
		m := sys.AddMachine(n, rtos.HostConfig{})
		sys.Link("cli", n, core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond})
		machines = append(machines, m)
	}
	r := FailoverResult{Seed: seed, Recover: revive}
	event := func(format string, args ...any) {
		at := time.Duration(sys.K.Now())
		r.Timeline = append(r.Timeline, fmt.Sprintf("  t=%-8v %s", at, fmt.Sprintf(format, args...)))
	}

	cliORB := cli.ORB(orb.Config{AttemptTimeout: failoverPeriod, BackoffBase: 5 * time.Millisecond})
	tr := trace.NewTracer(sys.K)
	cliORB.EnableTracing(tr)

	gm := ft.NewGroupManager()
	monitor := ft.NewMonitor(cliORB, failoverPeriod)
	var refs []*orb.ObjectRef
	var recvs []*avstreams.Receiver
	for i, m := range machines {
		o := m.ORB(orb.Config{})
		poa, err := o.CreatePOA("app", orb.POAConfig{})
		if err != nil {
			panic(err)
		}
		ref, err := poa.Activate("obj", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
			req.Thread.Compute(time.Millisecond)
			return req.Body, nil
		}))
		if err != nil {
			panic(err)
		}
		refs = append(refs, ref)
		det, err := ft.RegisterDetector(o, 30000)
		if err != nil {
			panic(err)
		}
		monitor.Watch(names[i], det)
		recvs = append(recvs, m.AV().CreateReceiver(6000, 60, nil))
	}
	g, err := gm.CreateGroup(refs...)
	if err != nil {
		panic(err)
	}
	groupRef := g.Ref()

	var crashTime, deadAt, firstBackupFrame, firstBackupInvoke sim.Time
	monitor.OnChange(func(name string, alive bool) {
		state := "DEAD"
		if alive {
			state = "ALIVE"
		}
		event("heartbeat monitor: %s -> %s", name, state)
		if name == names[0] && !alive && deadAt == 0 {
			deadAt = sys.K.Now()
		}
	})

	contract := quo.NewContract("replica-health", failoverPeriod/5).
		AddCondition(monitor.LivenessCond(names[0])).
		AddCondition(monitor.FractionAliveCond()).
		AddRegion(quo.Region{Name: "normal", When: func(v quo.Values) bool { return v["alive:"+names[0]] == 1 }}).
		AddRegion(quo.Region{Name: "degraded: running on backup", When: func(v quo.Values) bool { return v["alive-fraction"] > 0 }}).
		AddRegion(quo.Region{Name: "down"})
	contract.OnTransition(func(from, to string, v quo.Values) {
		if from == "" {
			from = "(start)"
		}
		event("QuO contract: region %q -> %q", from, to)
	})

	monitor.Start(90)
	contract.Start(sys.K)

	// Replicated A/V sink: stream to the first alive replica, retarget
	// on liveness transitions.
	sender := cli.AV().CreateSender(6001)
	cli.Host.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), recvs[0].Addr(), avstreams.QoS{})
		if err != nil {
			panic(err)
		}
		targets := make([]ft.StreamTarget, len(names))
		for i, n := range names {
			targets[i] = ft.StreamTarget{Name: n, Addr: recvs[i].Addr()}
		}
		ft.BindStreamFailover(monitor, st, targets)
		// Registered after BindStreamFailover so the retarget has
		// already happened when this logs the destination.
		monitor.OnChange(func(string, bool) {
			event("A/V stream: destination now %v", st.Dst())
		})
		st.RunSource(th, video.NewGenerator(), failoverDur)
	})
	recvs[1].SetHandler(func(f video.Frame, sentAt, recvAt sim.Time) {
		if firstBackupFrame == 0 && crashTime != 0 {
			firstBackupFrame = recvAt
			event("A/V stream: first frame on backup %s (seq %d)", names[1], f.Seq)
		}
	})

	// Control-plane traffic on the group reference.
	cli.Host.Spawn("invoker", 50, func(th *rtos.Thread) {
		for th.Now() < sim.Time(failoverDur) {
			_, err := cliORB.Invoke(th, groupRef, "work", []byte("x"))
			if err != nil {
				r.InvokeFailed++
			} else {
				r.InvokeOK++
				if crashTime != 0 && firstBackupInvoke == 0 {
					firstBackupInvoke = th.Now()
					event("invocation: first post-crash completion (failed over)")
				}
			}
			th.Sleep(50 * time.Millisecond)
		}
	})

	sys.K.At(failoverCrash, func() {
		crashTime = sys.K.Now()
		event("FAULT: crash-stop %s (CPU halted, NIC down)", names[0])
		ft.CrashHost(machines[0].Host, machines[0].Node)
	})
	tail := 500 * time.Millisecond
	if revive {
		sys.K.At(failoverCrash+(failoverDur-failoverCrash)/2, func() {
			event("FAULT: %s recovers", names[0])
			ft.RecoverHost(machines[0].Host, machines[0].Node)
		})
		// The transport's RTO backs off to 2s while the host is silent;
		// after revival both directions retransmit and drain their
		// backlog before fresh heartbeats flow, so the ALIVE verdict can
		// lag the recovery by several seconds.
		tail = 4 * time.Second
	}
	sys.RunUntil(failoverDur + tail)

	for _, s := range tr.Collector().Spans() {
		if s.Name == "failover" && s.Layer == trace.LayerFT {
			r.FailoverSpans++
		}
	}
	for i := range r.Frames {
		r.Frames[i] = recvs[i].Stats.ReceivedTotal
	}
	if deadAt > 0 {
		r.Detection = time.Duration(deadAt - crashTime)
	}
	if firstBackupFrame > 0 {
		r.StreamFailover = time.Duration(firstBackupFrame - crashTime)
	}
	r.FinalRegion = contract.Region()
	return r
}

// Render prints the recovery timeline and the summary with the
// measured failover latencies.
func (r FailoverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qosfailover: 3-replica group, heartbeat period %v, crash at %v (seed %d)\n\nrecovery timeline:\n",
		failoverPeriod, failoverCrash, r.Seed)
	for _, e := range r.Timeline {
		b.WriteString(e + "\n")
	}
	b.WriteString("\nsummary:\n")
	fmt.Fprintf(&b, "  invocations              %d ok, %d failed\n", r.InvokeOK, r.InvokeFailed)
	fmt.Fprintf(&b, "  frames delivered         s1=%d s2=%d s3=%d\n", r.Frames[0], r.Frames[1], r.Frames[2])
	fmt.Fprintf(&b, "  failover trace spans     %d (layer %q)\n", r.FailoverSpans, trace.LayerFT)
	if r.Detection > 0 {
		fmt.Fprintf(&b, "  fault detection latency  %v (bound: 1.5 periods = %v)\n", r.Detection, failoverPeriod*3/2)
	}
	if r.StreamFailover > 0 {
		verdict := "within"
		if r.StreamFailover > 2*failoverPeriod {
			verdict = "EXCEEDS"
		}
		fmt.Fprintf(&b, "  stream failover latency  %v (%s 2 detector periods = %v)\n", r.StreamFailover, verdict, 2*failoverPeriod)
	}
	fmt.Fprintf(&b, "  final contract region    %q\n", r.FinalRegion)
	return b.String()
}

// Checks states the scenario's acceptance as claims: no invocation
// fails, the crash is detected within 1.5 heartbeat periods, the stream
// reaches the backup within 2, and the contract ends in the region the
// fault schedule implies.
func (r FailoverResult) Checks() []metrics.Check {
	name, region := "Failover", "degraded: running on backup"
	if r.Recover {
		name, region = "Failover + recovery", "normal"
	}
	return []metrics.Check{
		{Experiment: name, Claim: "every group invocation survives the primary's crash",
			OK: r.InvokeOK > 0 && r.InvokeFailed == 0, Detail: fmt.Sprintf("%d ok, %d failed", r.InvokeOK, r.InvokeFailed)},
		{Experiment: name, Claim: "the heartbeat monitor detects the crash within 1.5 periods",
			OK: r.Detection > 0 && r.Detection <= failoverPeriod*3/2, Detail: fmt.Sprintf("%v (bound %v)", r.Detection, failoverPeriod*3/2)},
		{Experiment: name, Claim: "the stream reaches the backup within 2 detector periods",
			OK: r.StreamFailover > 0 && r.StreamFailover <= 2*failoverPeriod, Detail: fmt.Sprintf("%v (bound %v)", r.StreamFailover, 2*failoverPeriod)},
		{Experiment: name, Claim: fmt.Sprintf("the contract ends in region %q", region),
			OK: r.FinalRegion == region, Detail: fmt.Sprintf("%q", r.FinalRegion)},
	}
}
