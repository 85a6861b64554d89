package experiments

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/avstreams"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/quo"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/video"
)

// Mechanism ablations for the design choices DESIGN.md §5 calls out.
// Each scenario runs once with its mechanism on and once with it off,
// and one claim states the benefit the mechanism must show.

// onOff holds one mechanism's outcome with it on and with it off.
type onOff struct{ with, without float64 }

// cases lists the scenario's two runs, each writing its side of r.
func (r *onOff) cases(opt Options, name string, scenario func(opt Options, on bool) float64) []simCase {
	return []simCase{
		{name + ", with", func() { r.with = scenario(opt, true) }},
		{name + ", without", func() { r.without = scenario(opt, false) }},
	}
}

// Ablations runs every mechanism's scenario with and without the
// mechanism, side by side on runCases, and tests each mechanism's claim.
func Ablations(opt Options) []metrics.Check {
	var diffServ, intServ, pi, enforce, lanes, filter, colloc, adapt onOff
	var high, low float64
	runCases(slices.Concat(
		diffServ.cases(opt, "DiffServ EF vs FIFO", diffServScenario),
		intServ.cases(opt, "IntServ vs DSCP-only", intServScenario),
		pi.cases(opt, "priority inheritance", inheritanceScenario),
		enforce.cases(opt, "hard vs soft enforcement", enforcementScenario),
		lanes.cases(opt, "thread-pool lanes", lanesScenario),
		filter.cases(opt, "filter at sender vs distributor", filterScenario),
		colloc.cases(opt, "collocation", collocationScenario),
		[]simCase{{"priority-driven reservations", func() { high, low = reservationScenario(opt) }}},
		adapt.cases(opt, "adaptive DSCP promotion", adaptiveDSCPScenario),
	))

	var checks []metrics.Check
	add := func(mechanism, claim string, ok bool, r onOff, unit string) {
		checks = append(checks, metrics.Check{
			Experiment: mechanism,
			Claim:      claim,
			OK:         ok,
			Detail:     fmt.Sprintf("with %.4g, without %.4g %s", r.with, r.without, unit),
		})
	}
	// Cross traffic phase-locks with the video flow at some seeds, so an
	// unprotected flow keeps anywhere from a fraction of a percent to
	// 83 %; the claim is the gap the mechanism buys.
	add("DiffServ EF vs FIFO",
		"EF survives 3x BE overload only if classified: with >= 0.99, without <= with - 0.15",
		diffServ.with >= 0.99 && diffServ.without <= diffServ.with-0.15, diffServ, "delivered-fraction")
	add("IntServ vs DSCP-only",
		"only a reservation isolates from EF overload: with >= 0.99, without <= with - 0.15",
		intServ.with >= 0.99 && intServ.without <= intServ.with-0.15, intServ, "delivered-fraction")
	add("priority inheritance",
		"the wait is bounded by the critical section: with <= 0.030, without >= 0.4",
		pi.with <= 0.030 && pi.without >= 0.4, pi, "seconds-blocked")
	add("hard vs soft enforcement",
		"hard demotion shields the victim: with < without, with <= 0.5",
		enforce.with < enforce.without && enforce.with <= 0.5, enforce, "victim-completion-seconds")
	add("thread-pool lanes",
		"a lane skips 50 queued low requests: with <= 0.005, without >= 0.05",
		lanes.with <= 0.005 && lanes.without >= 0.05, lanes, "dispatch-latency-seconds")
	add("filter at sender vs distributor",
		"a sender-side filter saves the uplink: with >= 0.9, without <= 0.7 * with",
		filter.with >= 0.9 && filter.without <= 0.7*filter.with, filter, "I-frame-delivery-fraction")
	add("collocation",
		"the fast path beats loopback GIOP: with < without",
		colloc.with < colloc.without, colloc, "round-trip-seconds")
	checks = append(checks, metrics.Check{
		Experiment: "priority-driven reservations",
		Claim:      "grants follow priority: high >= 0.99, low < high and >= its 0.1 floor",
		OK:         high >= 0.99 && low < high && low >= 0.1,
		Detail:     fmt.Sprintf("high %.4g, low %.4g granted-fraction", high, low),
	})
	add("adaptive DSCP promotion",
		"EF promotion on loss: with >= 0.85, without <= 0.75, with >= without + 0.15",
		adapt.with >= 0.85 && adapt.without <= 0.75 && adapt.with >= adapt.without+0.15, adapt, "delivered-fraction")
	return checks
}

// diffServScenario measures an EF-marked video flow's delivery fraction
// through a congested bottleneck with a DiffServ egress (on) versus a
// plain FIFO (off): EF marking only helps when the router classifies it.
func diffServScenario(opt Options, diffserv bool) float64 {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	n := sys.Net
	src := sys.AddMachine("src", rtos.HostConfig{}).Node
	dst := sys.AddMachine("dst", rtos.HostConfig{}).Node
	mk := func() netsim.Qdisc {
		if diffserv {
			return netsim.NewDiffServ(32*1024, netsim.NewFIFO(64*1024))
		}
		return netsim.NewFIFO(64 * 1024)
	}
	n.Connect(src, dst,
		netsim.LinkConfig{Bps: 10e6, Queue: mk()},
		netsim.LinkConfig{Bps: 10e6, Queue: mk()})
	dst.Bind(9, func(*netsim.Packet) {})
	video := netsim.NewCBR(n, netsim.CBRConfig{
		Src: src, SrcPort: 9, Dst: dst.Addr(9), Bps: 1.2e6, PktSize: 1400, DSCP: netsim.DSCPEF,
	})
	video.Start()
	netsim.StartCrossTraffic(n, src, dst, 100, 30e6, 10, netsim.DSCPBestEffort)
	sys.RunUntil(opt.duration(20 * time.Second))
	return 1 - n.FlowStats(video.Flow()).LossRate()
}

// intServScenario measures delivery when the EXPEDITED band itself is
// overloaded (everyone marks EF): DSCP marking alone (off) collapses
// while an IntServ reservation (on) still isolates the flow — the
// paper's argument that marking alone cannot guarantee service.
func intServScenario(opt Options, reserve bool) float64 {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	k, n := sys.K, sys.Net
	src := sys.AddMachine("src", rtos.HostConfig{}).Node
	dst := sys.AddMachine("dst", rtos.HostConfig{}).Node
	mk := func() netsim.Qdisc {
		return netsim.NewIntServ(netsim.NewDiffServ(64*1024, netsim.NewFIFO(64*1024)))
	}
	n.Connect(src, dst,
		netsim.LinkConfig{Bps: 10e6, Queue: mk()},
		netsim.LinkConfig{Bps: 10e6, Queue: mk()})
	dst.Bind(9, func(*netsim.Packet) {})
	flow := n.NewFlowID()
	done := false
	k.Go("scenario", func(p *sim.Proc) {
		if reserve {
			if _, err := n.ReserveFlow(p, netsim.ReservationSpec{
				Flow: flow, Src: src, Dst: dst, RateBps: 1.4e6,
			}); err != nil {
				panic(err)
			}
		}
		done = true
	})
	vid := netsim.NewCBR(n, netsim.CBRConfig{
		Src: src, SrcPort: 9, Dst: dst.Addr(9), Bps: 1.2e6, PktSize: 1400,
		DSCP: netsim.DSCPEF, Flow: flow,
	})
	k.After(100*time.Millisecond, func() {
		if !done {
			panic("reservation did not complete")
		}
		vid.Start()
		// Rogue aggregate: 30 Mbps ALSO marked EF.
		netsim.StartCrossTraffic(n, src, dst, 100, 30e6, 10, netsim.DSCPEF)
	})
	sys.RunUntil(opt.duration(20 * time.Second))
	k.Stop()
	return 1 - n.FlowStats(flow).LossRate()
}

// inheritanceScenario measures the high-priority thread's lock
// acquisition delay with and without priority inheritance while a
// medium-priority hog runs — the classic bounded-vs-unbounded priority
// inversion.
func inheritanceScenario(opt Options, pi bool) float64 {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	h := sys.AddMachine("h", rtos.HostConfig{}).Host
	var m *rtos.Mutex
	if pi {
		m = rtos.NewMutex(h)
	} else {
		m = rtos.NewMutexNoPI(h)
	}
	var waited time.Duration
	h.Spawn("low", 1, func(t *rtos.Thread) {
		m.Lock(t)
		t.Compute(20 * time.Millisecond)
		m.Unlock(t)
	})
	h.Spawn("med", 10, func(t *rtos.Thread) {
		t.Sleep(time.Millisecond)
		t.Compute(500 * time.Millisecond)
	})
	h.Spawn("high", 20, func(t *rtos.Thread) {
		t.Sleep(2 * time.Millisecond)
		before := t.Now()
		m.Lock(t)
		waited = time.Duration(t.Now() - before)
		m.Unlock(t)
	})
	sys.RunUntil(5 * time.Second)
	return waited.Seconds()
}

// enforcementScenario measures a victim task's completion time when a
// greedy reserved task overruns its budget under hard (on) versus soft
// (off) enforcement: hard demotion protects the victim.
func enforcementScenario(opt Options, hard bool) float64 {
	policy := rtos.EnforceSoft
	if hard {
		policy = rtos.EnforceHard
	}
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	h := sys.AddMachine("h", rtos.HostConfig{Quantum: time.Millisecond}).Host
	r, err := h.ResourceKernel().Reserve(20*time.Millisecond, 100*time.Millisecond, policy)
	if err != nil {
		panic(err)
	}
	h.Spawn("greedy", 50, func(t *rtos.Thread) {
		r.Attach(t)
		t.Compute(2 * time.Second) // wants 10x its reservation
	})
	var victimDone time.Duration
	h.Spawn("victim", 50, func(t *rtos.Thread) {
		t.Compute(200 * time.Millisecond)
		victimDone = time.Duration(t.Now())
	})
	sys.RunUntil(10 * time.Second)
	return victimDone.Seconds()
}

// lanesScenario measures a high-priority request's dispatch latency
// when the server uses priority lanes (on) versus one shared lane (off)
// flooded by low-priority requests.
func lanesScenario(opt Options, lanes bool) float64 {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	k := sys.K
	h := sys.AddMachine("h", rtos.HostConfig{Quantum: time.Millisecond}).Host
	mm := rtcorba.NewMappingManager()
	var cfg []rtcorba.LaneConfig
	if lanes {
		cfg = []rtcorba.LaneConfig{
			{Priority: 0, Threads: 1},
			{Priority: 20000, Threads: 1},
		}
	} else {
		cfg = []rtcorba.LaneConfig{{Priority: 0, Threads: 2}}
	}
	tp, err := rtcorba.NewThreadPool(h, mm, cfg...)
	if err != nil {
		panic(err)
	}
	// Flood with slow low-priority work.
	for i := 0; i < 50; i++ {
		tp.Dispatch(rtcorba.Work{Priority: 100, Job: rtcorba.JobFunc(func(t *rtos.Thread) {
			t.Compute(20 * time.Millisecond)
		})})
	}
	var latency time.Duration
	k.After(10*time.Millisecond, func() {
		queued := k.Now()
		tp.Dispatch(rtcorba.Work{Priority: 30000, Job: rtcorba.JobFunc(func(t *rtos.Thread) {
			latency = time.Duration(t.Now() - queued)
			t.Compute(time.Millisecond)
		})})
	})
	sys.RunUntil(10 * time.Second)
	return latency.Seconds()
}

// filterScenario measures end-to-end I-frame delivery when the QuO
// frame filter runs at the sender (on) versus at the distributor (off),
// with a constrained uplink: distributor-side filtering wastes the
// uplink on frames that will be discarded.
func filterScenario(opt Options, filterAtSender bool) float64 {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	src := sys.AddMachine("src", rtos.HostConfig{})
	dist := sys.AddMachine("dist", rtos.HostConfig{})
	sink := sys.AddMachine("sink", rtos.HostConfig{})
	// The uplink is the constraint: 600 Kbps cannot carry 30 fps.
	sys.Link("src", "dist", core.LinkSpec{Bps: 600e3, Delay: 5 * time.Millisecond})
	sys.Link("dist", "sink", core.LinkSpec{Bps: 10e6, Delay: time.Millisecond})

	recv := sink.AV().CreateReceiver(5000, 50, nil)
	d := dist.AV().NewDistributor(4000, 60)
	dist.Host.Spawn("branch", 60, func(t *rtos.Thread) {
		st, err := d.AddBranch(t.Proc(), 4001, recv.Addr(), avstreams.QoS{})
		if err != nil {
			panic(err)
		}
		if !filterAtSender {
			st.SetFilter(video.FilterIOnly)
		}
	})
	sender := src.AV().CreateSender(4100)
	var uplink *avstreams.Stream
	src.Host.Spawn("source", 50, func(t *rtos.Thread) {
		var err error
		uplink, err = sender.Bind(t.Proc(), d.InAddr(), avstreams.QoS{})
		if err != nil {
			panic(err)
		}
		if filterAtSender {
			uplink.SetFilter(video.FilterIOnly)
		}
		t.Sleep(100 * time.Millisecond)
		uplink.RunSource(t, video.NewGenerator(), opt.duration(20*time.Second))
	})
	sys.RunUntil(opt.duration(20*time.Second) + 5*time.Second)
	// I-frames delivered end to end per I-frame the camera offered
	// the uplink (I-frames pass both filter levels, so this equals
	// camera production in both placements).
	produced := uplink.Stats.SentByType[video.FrameI]
	if produced == 0 {
		return 0
	}
	return float64(recv.Stats.RecvByType[video.FrameI]) / float64(produced)
}

// collocationScenario measures invocation round-trip time with the
// collocation fast path (on) versus forcing the full loopback transport
// (off).
func collocationScenario(opt Options, collocated bool) float64 {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	m := sys.AddMachine("m", rtos.HostConfig{})
	sys.AddMachine("peer", rtos.HostConfig{})
	sys.Link("m", "peer", core.LinkSpec{Bps: 100e6})
	o := m.ORB(orb.Config{DisableCollocation: !collocated})
	poa, err := o.CreatePOA("app", orb.POAConfig{})
	if err != nil {
		panic(err)
	}
	ref, err := poa.Activate("svc", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		return req.Body, nil
	}))
	if err != nil {
		panic(err)
	}
	var total time.Duration
	const calls = 100
	m.Host.Spawn("caller", 50, func(t *rtos.Thread) {
		body := make([]byte, 1024)
		for i := 0; i < calls; i++ {
			start := t.Now()
			if _, err := o.Invoke(t, ref, "op", body); err != nil {
				panic(err)
			}
			total += time.Duration(t.Now() - start)
		}
	})
	sys.RunUntil(time.Minute)
	return (total / calls).Seconds()
}

// reservationScenario exercises the paper's proposed extension —
// "using the priority paradigm to drive who gets reservations" — on a
// contended bottleneck: three activities request more bandwidth than
// exists; allocation proceeds in priority order with degradation toward
// each request's floor. It returns the highest- and lowest-priority
// activities' granted fractions of their requests.
func reservationScenario(opt Options) (high, low float64) {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	src := sys.AddMachine("src", rtos.HostConfig{})
	dst := sys.AddMachine("dst", rtos.HostConfig{})
	sys.Link("src", "dst", core.LinkSpec{Bps: 10e6, Profile: core.ProfileFullQoS})
	qm := core.NewQoSManager(sys)

	acts := []*core.Activity{
		{Name: "high", Priority: 30000},
		{Name: "mid", Priority: 15000},
		{Name: "low", Priority: 2000},
	}
	var results []core.AllocationResult
	src.Host.Spawn("alloc", 50, func(t *rtos.Thread) {
		reqs := make([]core.ReservationRequest, 0, len(acts))
		for _, a := range acts {
			reqs = append(reqs, core.ReservationRequest{
				Activity:   a,
				Flow:       sys.Net.NewFlowID(),
				Src:        src,
				Dst:        dst,
				RateBps:    5e6,
				MinRateBps: 0.5e6,
			})
		}
		results = qm.PriorityDrivenReservations(t.Proc(), reqs)
	})
	sys.RunUntil(10 * time.Second)
	frac := func(name string) float64 {
		for _, r := range results {
			if r.Request.Activity.Name == name {
				return r.GrantedBps / r.Request.RateBps
			}
		}
		return -1
	}
	return frac("high"), frac("low")
}

// adaptiveDSCPScenario exercises the paper's statement that "the QuO
// middleware can change these priorities dynamically by marking
// application streams with appropriate DSCPs": a best-effort video
// stream hits congestion, and a QuO contract reacts by promoting the
// stream to EF instead of thinning it (on) or leaves it at best effort
// (off). It returns the stream's delivered fraction.
func adaptiveDSCPScenario(opt Options, adapt bool) float64 {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	snd := sys.AddMachine("snd", rtos.HostConfig{})
	rcv := sys.AddMachine("rcv", rtos.HostConfig{})
	sys.Link("snd", "rcv", core.LinkSpec{Bps: 10e6, Delay: time.Millisecond, Profile: core.ProfileDiffServ})

	recv := rcv.AV().CreateReceiver(5000, 50, nil)
	sender := snd.AV().CreateSender(5001)
	dur := opt.duration(20 * time.Second)
	var stream *avstreams.Stream
	snd.Host.Spawn("source", 50, func(t *rtos.Thread) {
		st, err := sender.Bind(t.Proc(), recv.Addr(), avstreams.QoS{})
		if err != nil {
			panic(err)
		}
		stream = st
		st.RunSource(t, video.NewGenerator(), dur)
	})

	if adapt {
		// The QuO contract: on sustained loss, promote the stream's
		// marking to EF; de-promote when clean again.
		loss := quo.NewEWMACond("loss", 0.5)
		var lastSent, lastRecv int64
		contract := quo.NewContract("dscp-promotion", 500*time.Millisecond).
			AddCondition(loss).
			AddRegion(quo.Region{Name: "congested", When: func(v quo.Values) bool {
				return v["loss"] > 0.10
			}}).
			AddRegion(quo.Region{Name: "clean"}).
			OnTransition(func(_, to string, _ quo.Values) {
				if stream != nil && to == "congested" {
					stream.SetDSCP(netsim.DSCPEF)
				}
			})
		var tick func()
		tick = func() {
			if stream != nil {
				dSent := stream.Stats.SentTotal - lastSent
				dRecv := recv.Stats.ReceivedTotal - lastRecv
				lastSent, lastRecv = stream.Stats.SentTotal, recv.Stats.ReceivedTotal
				if dSent > 0 {
					loss.Observe(1 - float64(dRecv)/float64(dSent))
				}
			}
			contract.Eval()
			sys.K.After(500*time.Millisecond, tick)
		}
		sys.K.After(500*time.Millisecond, tick)
	}

	// Congestion for the middle three fifths of the run.
	var cross *netsim.CrossTraffic
	sys.K.At(dur/5, func() {
		cross = netsim.StartCrossTraffic(sys.Net, snd.Node, rcv.Node, 6000, 40e6, 20, netsim.DSCPBestEffort)
	})
	sys.K.At(4*dur/5, func() { cross.Stop() })
	sys.RunUntil(dur + 5*time.Second)
	return float64(recv.Stats.ReceivedTotal) / float64(stream.Stats.SentTotal)
}
