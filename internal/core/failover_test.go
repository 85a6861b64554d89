package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/avstreams"
	"repro/internal/ft"
	"repro/internal/orb"
	"repro/internal/quo"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
)

// TestFailoverOnHostCrashMidInvocation kills the primary's host while a
// dispatch is executing on it: the client must time out the attempt and
// transparently complete on the backup.
func TestFailoverOnHostCrashMidInvocation(t *testing.T) {
	sys := NewSystem(1)
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	s1 := sys.AddMachine("s1", rtos.HostConfig{})
	s2 := sys.AddMachine("s2", rtos.HostConfig{})
	sys.Link("cli", "s1", LinkSpec{Bps: 100e6, Delay: 100 * time.Microsecond})
	sys.Link("cli", "s2", LinkSpec{Bps: 100e6, Delay: 100 * time.Microsecond})

	cliORB := cli.ORB(orb.Config{AttemptTimeout: 200 * time.Millisecond})
	slowCalls, fastCalls := 0, 0
	poa1, _ := s1.ORB(orb.Config{}).CreatePOA("app", orb.POAConfig{})
	ref1, _ := poa1.Activate("obj", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		slowCalls++
		req.Thread.Compute(time.Second) // the crash lands mid-compute
		return req.Body, nil
	}))
	poa2, _ := s2.ORB(orb.Config{}).CreatePOA("app", orb.POAConfig{})
	ref2, _ := poa2.Activate("obj", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		fastCalls++
		return req.Body, nil
	}))

	gm := ft.NewGroupManager()
	g, err := gm.CreateGroup(ref1, ref2)
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Ref()

	sys.K.At(150*time.Millisecond, func() { ft.CrashHost(s1.Host, s1.Node) })

	var reply []byte
	var callErr error
	var doneAt sim.Time
	cli.Host.Spawn("caller", 50, func(th *rtos.Thread) {
		th.Sleep(100 * time.Millisecond)
		reply, callErr = cliORB.Invoke(th, ref, "work", []byte("payload"))
		doneAt = th.Now()
	})
	sys.RunUntil(5 * time.Second)

	if callErr != nil {
		t.Fatalf("invocation across host crash: %v", callErr)
	}
	if string(reply) != "payload" {
		t.Fatalf("reply = %q", reply)
	}
	if slowCalls != 1 || fastCalls != 1 {
		t.Fatalf("dispatches: primary %d backup %d, want 1 each", slowCalls, fastCalls)
	}
	// 100ms start + 200ms attempt timeout + backoff + fast retry.
	if d := time.Duration(doneAt); d > 600*time.Millisecond {
		t.Fatalf("failover completed at %v, too slow", d)
	}
}

// e2eResult captures the observable outcomes of the kill-primary
// end-to-end scenario for both the assertions and the determinism check.
type e2eResult struct {
	region        string
	regionHistory []string
	failoverSpans int
	invokeOK      int
	invokeFail    int
	recvPrimary   int64
	recvBackup    int64
	maxGap        time.Duration
	detectLatency time.Duration
}

// runKillPrimaryE2E builds a 3-replica group with a replicated A/V
// sink, kills the primary mid-stream, and records how the system
// recovers. Deterministic given the seed.
func runKillPrimaryE2E(seed int64) *e2eResult {
	const (
		period  = 100 * time.Millisecond
		crashAt = 2 * time.Second
		endAt   = 4 * time.Second
	)
	sys := NewSystem(seed)
	cli := sys.AddMachine("cli", rtos.HostConfig{})
	names := []string{"s1", "s2", "s3"}
	var machines []*Machine
	for _, n := range names {
		m := sys.AddMachine(n, rtos.HostConfig{})
		sys.Link("cli", n, LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond})
		machines = append(machines, m)
	}

	cliORB := cli.ORB(orb.Config{AttemptTimeout: 100 * time.Millisecond, BackoffBase: 5 * time.Millisecond})
	tr := trace.NewTracer(sys.K)
	cliORB.EnableTracing(tr)

	// Replicated servant + per-host detector + A/V receiver on each.
	gm := ft.NewGroupManager()
	var refs []*orb.ObjectRef
	var recvs []*avstreams.Receiver
	monitor := ft.NewMonitor(cliORB, period)
	for i, m := range machines {
		o := m.ORB(orb.Config{})
		poa, _ := o.CreatePOA("app", orb.POAConfig{})
		ref, _ := poa.Activate("obj", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
			req.Thread.Compute(time.Millisecond)
			return req.Body, nil
		}))
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

	res := &e2eResult{}
	var deadAt sim.Time
	monitor.OnChange(func(name string, alive bool) {
		if name == "s1" && !alive && deadAt == 0 {
			deadAt = sys.K.Now()
		}
	})

	// QuO contract: liveness of the primary drives the operating region.
	contract := quo.NewContract("replica-health", 20*time.Millisecond).
		AddCondition(monitor.LivenessCond("s1")).
		AddCondition(monitor.FractionAliveCond()).
		AddRegion(quo.Region{Name: "normal", When: func(v quo.Values) bool { return v["alive:s1"] == 1 }}).
		AddRegion(quo.Region{Name: "degraded: running on backup", When: func(v quo.Values) bool { return v["alive-fraction"] > 0 }}).
		AddRegion(quo.Region{Name: "down"})
	contract.OnTransition(func(from, to string, v quo.Values) {
		res.regionHistory = append(res.regionHistory, to)
	})

	monitor.Start(90)
	contract.Start(sys.K)

	// Replicated A/V sink: stream to the first alive replica.
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
		st.RunSource(th, video.NewGenerator(), endAt)
	})

	// Control-plane traffic: periodic invocations on the group.
	cli.Host.Spawn("invoker", 50, func(th *rtos.Thread) {
		for th.Now() < sim.Time(endAt) {
			_, err := cliORB.Invoke(th, groupRef, "work", []byte("x"))
			if err != nil {
				res.invokeFail++
			} else {
				res.invokeOK++
			}
			th.Sleep(50 * time.Millisecond)
		}
	})

	sys.K.At(crashAt, func() { ft.CrashHost(machines[0].Host, machines[0].Node) })
	sys.RunUntil(endAt + 500*time.Millisecond)

	res.region = contract.Region()
	res.recvPrimary = recvs[0].Stats.ReceivedTotal
	res.recvBackup = recvs[1].Stats.ReceivedTotal
	if deadAt > 0 {
		res.detectLatency = time.Duration(deadAt - sim.Time(crashAt))
	}
	for _, s := range tr.Collector().Spans() {
		if s.Name == "failover" && s.Layer == trace.LayerFT {
			res.failoverSpans++
		}
	}
	// Largest inter-arrival gap across all replicas' receivers — the
	// stream outage window around the failover.
	var all []sim.Time
	all = append(all, recvs[0].ArrivalTimes()...)
	all = append(all, recvs[1].ArrivalTimes()...)
	all = append(all, recvs[2].ArrivalTimes()...)
	for i := 1; i < len(all); i++ {
		if gap := time.Duration(all[i] - all[i-1]); gap > res.maxGap {
			res.maxGap = gap
		}
	}
	return res
}

// TestKillPrimaryEndToEnd is the acceptance scenario: a 3-replica group
// under live A/V and invocation traffic loses its primary; the pipeline
// must resume on the backup within two detector periods, the QuO
// contract must report the degraded region, and the failover must be
// visible as a trace span.
func TestKillPrimaryEndToEnd(t *testing.T) {
	res := runKillPrimaryE2E(42)
	const period = 100 * time.Millisecond

	if res.region != "degraded: running on backup" {
		t.Fatalf("contract region = %q, want degraded", res.region)
	}
	wantHistory := []string{"normal", "degraded: running on backup"}
	if len(res.regionHistory) != 2 || res.regionHistory[0] != wantHistory[0] || res.regionHistory[1] != wantHistory[1] {
		t.Fatalf("region history = %v, want %v", res.regionHistory, wantHistory)
	}
	if res.invokeFail != 0 {
		t.Fatalf("%d invocations failed despite failover (ok=%d)", res.invokeFail, res.invokeOK)
	}
	// ~38 invocations pre-crash at the 50ms cadence; post-crash each one
	// pays the 100ms attempt timeout before failing over, so the cadence
	// roughly halves.
	if res.invokeOK < 45 {
		t.Fatalf("only %d invocations completed", res.invokeOK)
	}
	if res.failoverSpans == 0 {
		t.Fatal("no failover span recorded in the trace")
	}
	if res.recvPrimary == 0 || res.recvBackup == 0 {
		t.Fatalf("frames: primary %d backup %d — pipeline did not resume", res.recvPrimary, res.recvBackup)
	}
	if res.detectLatency <= 0 || res.detectLatency > period+period/2 {
		t.Fatalf("detection latency %v, want within 1.5 periods", res.detectLatency)
	}
	// Failover latency bound: the stream outage (frame gap) must stay
	// within two detector periods (frame interval slack included).
	if res.maxGap > 2*period {
		t.Fatalf("stream outage %v exceeds 2 detector periods (%v)", res.maxGap, 2*period)
	}
}

// TestKillPrimaryE2EDeterministic reruns the scenario and demands
// identical observable results — the repeatability half of the
// acceptance criteria at the API level (the qosfailover command pins
// the byte-identical text form).
func TestKillPrimaryE2EDeterministic(t *testing.T) {
	a, b := runKillPrimaryE2E(42), runKillPrimaryE2E(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs diverged:\n a=%+v\n b=%+v", a, b)
	}
}
