// Command qosfailover runs the fault-tolerance acceptance scenario: a
// three-replica object group serving invocation traffic and a
// replicated A/V sink, whose primary host is crash-stopped mid-stream.
// It prints the recovery timeline — heartbeat verdicts, QuO contract
// region transitions, stream retargeting, and the first traffic on the
// backup — followed by a summary with the measured failover latencies.
//
// Usage:
//
//	qosfailover [-seed N] [-period D] [-crash D] [-dur D] [-recover]
//
// All times in the timeline are virtual: repeated runs with the same
// flags produce byte-identical output.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/avstreams"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/orb"
	"repro/internal/quo"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
)

type options struct {
	seed    int64
	period  time.Duration
	crashAt time.Duration
	dur     time.Duration
	recover bool
}

// timeline accumulates timestamped events in virtual-time order.
type timeline struct {
	k      *sim.Kernel
	events []string
}

func (tl *timeline) add(format string, args ...any) {
	at := time.Duration(tl.k.Now())
	tl.events = append(tl.events, fmt.Sprintf("  t=%-8v %s", at, fmt.Sprintf(format, args...)))
}

// run executes the scenario and returns the full report as a string.
func run(opt options) string {
	sys := core.NewSystem(opt.seed)
	defer sys.Close()
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	names := []string{"s1", "s2", "s3"}
	var machines []*core.Machine
	for _, n := range names {
		m := sys.AddMachine(n, rtos.HostConfig{})
		sys.Link("cli", n, core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond})
		machines = append(machines, m)
	}
	tl := &timeline{k: sys.K}

	cliORB := cli.ORB(orb.Config{AttemptTimeout: opt.period, BackoffBase: 5 * time.Millisecond})
	tr := trace.NewTracer(sys.K)
	cliORB.EnableTracing(tr)

	gm := ft.NewGroupManager()
	monitor := ft.NewMonitor(cliORB, opt.period)
	var refs []*orb.ObjectRef
	var recvs []*avstreams.Receiver
	for i, m := range machines {
		o := m.ORB(orb.Config{})
		poa, err := o.CreatePOA("app", orb.POAConfig{})
		if err != nil {
			fatal(err)
		}
		ref, err := poa.Activate("obj", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
			req.Thread.Compute(time.Millisecond)
			return req.Body, nil
		}))
		if err != nil {
			fatal(err)
		}
		refs = append(refs, ref)
		det, err := ft.RegisterDetector(o, 30000)
		if err != nil {
			fatal(err)
		}
		monitor.Watch(names[i], det)
		recvs = append(recvs, m.AV().CreateReceiver(6000, 60, nil))
	}
	g, err := gm.CreateGroup(refs...)
	if err != nil {
		fatal(err)
	}
	groupRef := g.Ref()

	var crashTime, deadAt, firstBackupFrame, firstBackupInvoke sim.Time
	monitor.OnChange(func(name string, alive bool) {
		state := "DEAD"
		if alive {
			state = "ALIVE"
		}
		tl.add("heartbeat monitor: %s -> %s", name, state)
		if name == names[0] && !alive && deadAt == 0 {
			deadAt = sys.K.Now()
		}
	})

	contract := quo.NewContract("replica-health", opt.period/5).
		AddCondition(monitor.LivenessCond(names[0])).
		AddCondition(monitor.FractionAliveCond()).
		AddRegion(quo.Region{Name: "normal", When: func(v quo.Values) bool { return v["alive:"+names[0]] == 1 }}).
		AddRegion(quo.Region{Name: "degraded: running on backup", When: func(v quo.Values) bool { return v["alive-fraction"] > 0 }}).
		AddRegion(quo.Region{Name: "down"})
	contract.OnTransition(func(from, to string, v quo.Values) {
		if from == "" {
			from = "(start)"
		}
		tl.add("QuO contract: region %q -> %q", from, to)
	})

	monitor.Start(90)
	contract.Start(sys.K)

	// Replicated A/V sink: stream to the first alive replica, retarget
	// on liveness transitions.
	sender := cli.AV().CreateSender(6001)
	cli.Host.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), recvs[0].Addr(), avstreams.QoS{})
		if err != nil {
			fatal(err)
		}
		targets := make([]ft.StreamTarget, len(names))
		for i, n := range names {
			targets[i] = ft.StreamTarget{Name: n, Addr: recvs[i].Addr()}
		}
		ft.BindStreamFailover(monitor, st, targets)
		// Registered after BindStreamFailover so the retarget has
		// already happened when this logs the destination.
		monitor.OnChange(func(string, bool) {
			tl.add("A/V stream: destination now %v", st.Dst())
		})
		st.RunSource(th, video.NewGenerator(), opt.dur)
	})
	recvs[1].SetHandler(func(f video.Frame, sentAt, recvAt sim.Time) {
		if firstBackupFrame == 0 && crashTime != 0 {
			firstBackupFrame = recvAt
			tl.add("A/V stream: first frame on backup %s (seq %d)", names[1], f.Seq)
		}
	})

	// Control-plane traffic on the group reference.
	invokeOK, invokeFail := 0, 0
	cli.Host.Spawn("invoker", 50, func(th *rtos.Thread) {
		for th.Now() < sim.Time(opt.dur) {
			_, err := cliORB.Invoke(th, groupRef, "work", []byte("x"))
			if err != nil {
				invokeFail++
			} else {
				invokeOK++
				if crashTime != 0 && firstBackupInvoke == 0 {
					firstBackupInvoke = th.Now()
					tl.add("invocation: first post-crash completion (failed over)")
				}
			}
			th.Sleep(50 * time.Millisecond)
		}
	})

	sys.K.At(opt.crashAt, func() {
		crashTime = sys.K.Now()
		tl.add("FAULT: crash-stop %s (CPU halted, NIC down)", names[0])
		ft.CrashHost(machines[0].Host, machines[0].Node)
	})
	if opt.recover {
		sys.K.At(opt.crashAt+(opt.dur-opt.crashAt)/2, func() {
			tl.add("FAULT: %s recovers", names[0])
			ft.RecoverHost(machines[0].Host, machines[0].Node)
		})
	}
	tail := 500 * time.Millisecond
	if opt.recover {
		// The transport's RTO backs off to 2s while the host is silent;
		// after revival both directions retransmit and drain their
		// backlog before fresh heartbeats flow, so the ALIVE verdict can
		// lag the recovery by several seconds.
		tail = 4 * time.Second
	}
	sys.RunUntil(opt.dur + tail)

	failoverSpans := 0
	for _, s := range tr.Collector().Spans() {
		if s.Name == "failover" && s.Layer == trace.LayerFT {
			failoverSpans++
		}
	}

	out := fmt.Sprintf("qosfailover: 3-replica group, heartbeat period %v, crash at %v (seed %d)\n\nrecovery timeline:\n", opt.period, opt.crashAt, opt.seed)
	for _, e := range tl.events {
		out += e + "\n"
	}
	out += "\nsummary:\n"
	out += fmt.Sprintf("  invocations              %d ok, %d failed\n", invokeOK, invokeFail)
	out += fmt.Sprintf("  frames delivered         %s=%d %s=%d %s=%d\n",
		names[0], recvs[0].Stats.ReceivedTotal, names[1], recvs[1].Stats.ReceivedTotal, names[2], recvs[2].Stats.ReceivedTotal)
	out += fmt.Sprintf("  failover trace spans     %d (layer %q)\n", failoverSpans, trace.LayerFT)
	if deadAt > 0 {
		out += fmt.Sprintf("  fault detection latency  %v (bound: 1.5 periods = %v)\n",
			time.Duration(deadAt-crashTime), opt.period*3/2)
	}
	if firstBackupFrame > 0 {
		lat := time.Duration(firstBackupFrame - crashTime)
		verdict := "within"
		if lat > 2*opt.period {
			verdict = "EXCEEDS"
		}
		out += fmt.Sprintf("  stream failover latency  %v (%s 2 detector periods = %v)\n", lat, verdict, 2*opt.period)
	}
	out += fmt.Sprintf("  final contract region    %q\n", contract.Region())
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qosfailover:", err)
	os.Exit(1)
}

func main() {
	opt := options{}
	flag.Int64Var(&opt.seed, "seed", 42, "simulation seed")
	flag.DurationVar(&opt.period, "period", 100*time.Millisecond, "heartbeat detector period")
	flag.DurationVar(&opt.crashAt, "crash", 2*time.Second, "virtual time of the primary's crash")
	flag.DurationVar(&opt.dur, "dur", 4*time.Second, "virtual duration of the scenario")
	flag.BoolVar(&opt.recover, "recover", false, "revive the primary halfway through the remainder")
	flag.Parse()
	fmt.Print(run(opt))
}
