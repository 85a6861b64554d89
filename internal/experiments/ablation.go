package experiments

import (
	"fmt"
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

// Ablation studies for the design choices DESIGN.md calls out. Each
// returns a pair of outcomes — mechanism on vs off — so the benchmarks
// can report what the mechanism buys.

// AblationPair is a generic on/off comparison result.
type AblationPair struct {
	Name     string
	With     float64
	Without  float64
	Unit     string
	MoreInfo string
}

func (p AblationPair) String() string {
	return fmt.Sprintf("%s: with=%.4g %s, without=%.4g %s (%s)",
		p.Name, p.With, p.Unit, p.Without, p.Unit, p.MoreInfo)
}

// AblationDiffServVsFIFO measures an EF-marked video flow's delivery
// fraction through a congested bottleneck with a DiffServ egress versus
// a plain FIFO. Expectation: EF marking only helps when the router
// classifies it.
func AblationDiffServVsFIFO(opt Options) AblationPair {
	run := func(diffserv bool) float64 {
		k := sim.NewKernel(opt.seed())
		defer k.Close()
		n := netsim.New(k)
		src := n.AddHost("src")
		dst := n.AddHost("dst")
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
		cross := netsim.StartCrossTraffic(n, src, dst, 100, 30e6, 10, netsim.DSCPBestEffort)
		k.RunUntil(opt.duration(20 * time.Second))
		video.Stop()
		cross.Stop()
		st := n.FlowStats(video.Flow())
		return 1 - st.LossRate()
	}
	return AblationPair{
		Name:     "DiffServ EF vs FIFO",
		With:     run(true),
		Without:  run(false),
		Unit:     "delivered-fraction",
		MoreInfo: "EF-marked 1.2 Mbps flow vs 3x best-effort overload",
	}
}

// AblationReservationVsMarking measures delivery when the EXPEDITED band
// itself is overloaded (everyone marks EF): DSCP marking collapses while
// an IntServ reservation still isolates the flow — the paper's argument
// that marking alone cannot guarantee service.
func AblationReservationVsMarking(opt Options) AblationPair {
	run := func(reserve bool) float64 {
		k := sim.NewKernel(opt.seed())
		defer k.Close()
		n := netsim.New(k)
		src := n.AddHost("src")
		dst := n.AddHost("dst")
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
		k.RunUntil(opt.duration(20 * time.Second))
		k.Stop()
		st := n.FlowStats(flow)
		return 1 - st.LossRate()
	}
	return AblationPair{
		Name:     "IntServ reservation vs DSCP marking under EF overload",
		With:     run(true),
		Without:  run(false),
		Unit:     "delivered-fraction",
		MoreInfo: "competing traffic also marked EF; only the reservation isolates",
	}
}

// AblationPriorityInheritance measures the high-priority thread's lock
// acquisition delay with and without priority inheritance while a
// medium-priority hog runs — the classic bounded-vs-unbounded priority
// inversion.
func AblationPriorityInheritance(opt Options) AblationPair {
	run := func(pi bool) float64 {
		k := sim.NewKernel(opt.seed())
		defer k.Close()
		h := rtos.NewHost(k, "h", rtos.HostConfig{})
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
		k.RunUntil(5 * time.Second)
		return waited.Seconds()
	}
	return AblationPair{
		Name:     "priority inheritance",
		With:     run(true),
		Without:  run(false),
		Unit:     "seconds-blocked",
		MoreInfo: "high-priority lock wait behind a medium-priority hog",
	}
}

// AblationEnforcementPolicy measures a victim task's completion time
// when a greedy reserved task overruns its budget under hard versus soft
// enforcement: hard demotion protects the victim.
func AblationEnforcementPolicy(opt Options) AblationPair {
	run := func(policy rtos.EnforcementPolicy) float64 {
		k := sim.NewKernel(opt.seed())
		defer k.Close()
		h := rtos.NewHost(k, "h", rtos.HostConfig{Quantum: time.Millisecond})
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
		k.RunUntil(10 * time.Second)
		return victimDone.Seconds()
	}
	return AblationPair{
		Name:     "reservation enforcement hard vs soft",
		With:     run(rtos.EnforceHard),
		Without:  run(rtos.EnforceSoft),
		Unit:     "victim-completion-seconds",
		MoreInfo: "equal-priority victim vs a 10x-overrunning reserved task",
	}
}

// AblationThreadPoolLanes measures a high-priority request's dispatch
// latency when the server uses priority lanes versus one shared lane
// flooded by low-priority requests.
func AblationThreadPoolLanes(opt Options) AblationPair {
	run := func(lanes bool) float64 {
		k := sim.NewKernel(opt.seed())
		defer k.Close()
		h := rtos.NewHost(k, "h", rtos.HostConfig{Quantum: time.Millisecond})
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
			tp.Dispatch(rtcorba.Work{Priority: 100, Fn: func(t *rtos.Thread) {
				t.Compute(20 * time.Millisecond)
			}})
		}
		var latency time.Duration
		k.After(10*time.Millisecond, func() {
			queued := k.Now()
			tp.Dispatch(rtcorba.Work{Priority: 30000, Fn: func(t *rtos.Thread) {
				latency = time.Duration(t.Now() - queued)
				t.Compute(time.Millisecond)
			}})
		})
		k.RunUntil(10 * time.Second)
		return latency.Seconds()
	}
	return AblationPair{
		Name:     "thread-pool priority lanes",
		With:     run(true),
		Without:  run(false),
		Unit:     "dispatch-latency-seconds",
		MoreInfo: "high-priority request vs 50 queued low-priority requests",
	}
}

// AblationFilterPlacement measures end-to-end I-frame delivery when the
// QuO frame filter runs at the sender versus at the distributor, with a
// constrained uplink: distributor-side filtering wastes the uplink on
// frames that will be discarded.
func AblationFilterPlacement(opt Options) AblationPair {
	run := func(filterAtSender bool) float64 {
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
	return AblationPair{
		Name:     "frame filter at sender vs distributor",
		With:     run(true),
		Without:  run(false),
		Unit:     "I-frame-delivery-fraction",
		MoreInfo: "600 Kbps uplink; distributor-side filtering wastes it on doomed frames",
	}
}

// AblationCollocation measures invocation round-trip time with the
// collocation fast path versus forcing the full loopback transport.
func AblationCollocation(opt Options) AblationPair {
	run := func(collocated bool) float64 {
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
	return AblationPair{
		Name:     "collocation optimisation",
		With:     run(true),
		Without:  run(false),
		Unit:     "round-trip-seconds",
		MoreInfo: "1 KiB echo on the local ORB, fast path vs loopback GIOP",
	}
}

// AblationPriorityDrivenReservations exercises the paper's proposed
// extension — "using the priority paradigm to drive who gets
// reservations" — on a contended bottleneck: three activities request
// more bandwidth than exists; allocation proceeds in priority order with
// degradation toward each request's floor. With = the highest-priority
// activity's granted fraction of its request, Without = the lowest's.
func AblationPriorityDrivenReservations(opt Options) AblationPair {
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
	return AblationPair{
		Name:     "priority-driven reservation allocation",
		With:     frac("high"),
		Without:  frac("low"),
		Unit:     "granted-fraction",
		MoreInfo: "three 5 Mbps requests on a 9 Mbps-reservable link, floors at 0.5 Mbps",
	}
}

// AblationAdaptiveDSCP exercises the paper's statement that "the QuO
// middleware can change these priorities dynamically by marking
// application streams with appropriate DSCPs": a best-effort video
// stream hits congestion, and a QuO contract reacts by promoting the
// stream to EF instead of thinning it. With = delivery fraction with
// the adaptive promotion, Without = left at best effort.
func AblationAdaptiveDSCP(opt Options) AblationPair {
	run := func(adapt bool) float64 {
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
					if stream == nil {
						return
					}
					if to == "congested" {
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
	return AblationPair{
		Name:     "adaptive DSCP promotion (QuO remarks the stream)",
		With:     run(true),
		Without:  run(false),
		Unit:     "delivered-fraction",
		MoreInfo: "best-effort stream promoted to EF when the contract detects loss",
	}
}

// RunAblations executes every ablation study.
func RunAblations(opt Options) []AblationPair {
	return []AblationPair{
		AblationDiffServVsFIFO(opt),
		AblationReservationVsMarking(opt),
		AblationPriorityInheritance(opt),
		AblationEnforcementPolicy(opt),
		AblationThreadPoolLanes(opt),
		AblationFilterPlacement(opt),
		AblationCollocation(opt),
		AblationPriorityDrivenReservations(opt),
		AblationAdaptiveDSCP(opt),
	}
}

// RenderAblations prints the studies as a table.
func RenderAblations(pairs []AblationPair) string {
	tb := metrics.NewTable("Ablation studies (design-choice contributions)",
		"Mechanism", "With", "Without", "Unit", "Scenario")
	for _, p := range pairs {
		tb.AddRow(p.Name,
			fmt.Sprintf("%.4g", p.With),
			fmt.Sprintf("%.4g", p.Without),
			p.Unit, p.MoreInfo)
	}
	return tb.Render()
}
