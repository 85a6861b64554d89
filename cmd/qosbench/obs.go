package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/trace/telemetry"
	"repro/internal/wire"
)

// The obs run's load: a real TCP server with an EF lane and a BE lane,
// and an open-loop mixed load sized so the BE lane saturates while the EF
// lane stays lightly loaded — the regime where banded connections plus
// priority lanes must keep the EF tail flat.
const (
	// phaseService is the servant's simulated per-request work, slept on
	// the lane worker: with phaseBEWorkers = 1 the BE capacity is 1 000
	// req/s, so phaseBEHz oversubscribes it ~1.2x.
	phaseService   = time.Millisecond
	phaseBEHz      = 1200
	phaseBEWorkers = 1
	phaseEFWorkers = 2
	// phaseQueueLimit bounds each lane's queue.
	phaseQueueLimit = 256
	// phasePayload is the request body size in bytes.
	phasePayload = 64
	// BE calls must outlive the full queueing delay (phaseQueueLimit *
	// phaseService behind one worker) or every saturated call dies to its
	// own timeout instead of measuring the queue.
	phaseBETimeout = 4*phaseQueueLimit*phaseService + time.Second
)

// The observer-overhead run drives that load in alternating bare and
// observed phases. The observability plane (sampler + alert rules +
// runtime collector + SLO tracker + profiler + a live scraper hitting
// /metrics, /debug/qos and /events) is brought up once and stays
// resident for the whole run — the production shape, where the plane
// outlives any burst of traffic and a capture cooldown rate-limits
// profiling — and is paused to full quiescence during the bare phases
// so they measure a genuinely unobserved system.
const (
	// obsPhase is each phase's default length (qosbench -duration).
	obsPhase = 2 * time.Second
	// obsIterations repeats the off/on phase pair. The reported overhead
	// is the median of the per-iteration paired p99 ratios: the two
	// phases of a pair run back to back, so a same-host interference
	// burst (CPU steal on a shared VM, an I/O stall) lands inside one
	// pair and is discarded by the median instead of polluting the
	// verdict. The rendered EF reports pool every iteration's samples for
	// the absolute numbers.
	obsIterations = 11
	obsEFHz       = 400
	// obsSampleEvery is the wall sampler period.
	obsSampleEvery = 100 * time.Millisecond
	// obsScrapeEvery is the live scraper's poll period. Each poll fetches
	// one endpoint, alternating /metrics and /debug/qos the way a real
	// scraper spreads its targets, so a poll is one bounded burst of
	// render work rather than several back-to-back.
	obsScrapeEvery = 1500 * time.Millisecond
)

// phaseResult is one load phase's outcome: a report per class plus the
// BE lane's server-side shed counters that explain its error budget.
type phaseResult struct {
	EF, BE  wire.ClassReport
	Refused int64 // BE admission refusals (TRANSIENT minor 2)
	Shed    int64 // BE deadline sheds at dequeue (TIMEOUT)
}

// benchPhase stands up a real TCP server, drives the mixed EF/BE load
// against it over localhost for d, and returns wall-clock per-class
// reports: bare when plane is nil, otherwise attached to the obs run's
// resident observability plane.
func benchPhase(d time.Duration, efHz int, plane *obsPlane) (*phaseResult, error) {
	reg := telemetry.NewRegistry()
	var bus *events.Bus
	if plane != nil {
		reg, bus = plane.reg, plane.bus
	}

	srv, err := wire.NewServer(wire.ServerConfig{
		Lanes: []wire.LaneConfig{
			{Priority: 0, Workers: phaseBEWorkers, QueueLimit: phaseQueueLimit},
			{Priority: wire.EFPriority, Workers: phaseEFWorkers, QueueLimit: phaseQueueLimit},
		},
		Registry: reg,
		Name:     "qosbench.server",
		Bus:      bus,
	})
	if err != nil {
		return nil, err
	}
	srv.Register("app/echo", wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
		time.Sleep(phaseService)
		return req.Body, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(5 * time.Second)

	cli, err := wire.NewClient(wire.ClientConfig{
		Addr:     addr.String(),
		Bands:    []int16{0, wire.EFPriority},
		Registry: reg,
		Name:     "qosbench.client",
		Bus:      bus,
	})
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	var inv wire.Invoker = cli
	if plane != nil {
		inv = sloInvoker{inner: cli, st: plane.st}
		plane.resume(srv, cli)
	}
	reports := wire.RunLoad(inv, d, []wire.LoadClass{
		{Name: "EF", Priority: wire.EFPriority, Hz: efHz, Payload: phasePayload, Timeout: 500 * time.Millisecond},
		{Name: "BE", Priority: 0, Hz: phaseBEHz, Payload: phasePayload, Timeout: phaseBETimeout},
	})
	if plane != nil {
		plane.pause()
	}
	be := srv.Snapshot().Lanes[0]
	return &phaseResult{EF: reports[0], BE: reports[1], Refused: be.Refused, Shed: be.Shed}, nil
}

// isolationCheck is the paper's claim on the live plane: with private
// banded connections and per-priority lanes, saturating the best-effort
// class must not drag the expedited tail up to it, nor fail an EF call
// other than by the generator's own local drop. The BE queue behind one
// worker holds tens of milliseconds while EF rides a private band into
// its own lane — the gap is structural (orders of magnitude), so a 2x
// margin is conservative even under the race detector.
func isolationCheck(ef, be wire.ClassReport) experiments.Check {
	var errs []string
	for class, n := range ef.Errors {
		if class != "dropped_local" && n > 0 {
			errs = append(errs, fmt.Sprintf("%s=%d", class, n))
		}
	}
	sort.Strings(errs)
	detail := fmt.Sprintf("EF p99 %.3fms over %d calls, BE p99 %.3fms over %d", ef.Latency.P99, ef.OK, be.Latency.P99, be.OK)
	if len(errs) > 0 {
		detail += ", EF errors " + strings.Join(errs, " ")
	}
	return experiments.Check{
		Experiment: "Obs",
		Claim:      "saturating BE leaves EF p99 below half BE p99, and EF without errors",
		OK:         ef.OK > 0 && be.OK > 0 && ef.Latency.P99*2 < be.Latency.P99 && len(errs) == 0,
		Detail:     detail,
	}
}

// obsResult is the observer-overhead run's outcome: the EF/BE reports
// of both phases, the relative EF p99 cost of the observer stack, and
// evidence that every observer actually ran during the observed phases.
type obsResult struct {
	// OffEF/OffBE: observers off; OnEF/OnBE: full stack on. The EF
	// reports pool the samples of every iteration on that side.
	OffEF, OffBE, OnEF, OnBE wire.ClassReport
	// OffRefused and OffShed are the BE lane's admission refusals and
	// deadline sheds in the observers-off phase OffBE reports.
	OffRefused, OffShed int64
	// OverheadP99 is the median over iterations of the paired
	// (on - off) / off EF p99 ratio — robust to interference bursts
	// that hit a single pair (see obsIterations).
	OverheadP99 float64
	// Observer-activity evidence, cumulative across observed phases.
	SamplerTicks    int     // wall sampler windows closed
	RuntimeSeries   int     // go.* instruments present in the registry
	ProfileCaptures float64 // pprof captures written (cpu + heap)
	AlertProfile    bool    // an alert-triggered CPU capture completed
	EventsStreamed  int     // records received over /events
	Scrapes         int     // /metrics + /debug/qos polls served
}

// Render prints the run's outcome; its observers-off table is the
// EF-vs-BE separation.
func (r *obsResult) Render() string {
	out := "observers off:\n" + wire.RenderReports([]wire.ClassReport{r.OffEF, r.OffBE})
	out += fmt.Sprintf("  server: refused=%d deadline_shed=%d\n", r.OffRefused, r.OffShed)
	out += "observers on (sampler+runtime+slo+profiler+scraper):\n"
	out += wire.RenderReports([]wire.ClassReport{r.OnEF, r.OnBE})
	out += fmt.Sprintf("  EF p99 off=%.3fms on=%.3fms (pooled over %d iterations), paired-median overhead=%.1f%%\n",
		r.OffEF.Latency.P99, r.OnEF.Latency.P99, obsIterations, r.OverheadP99*100)
	out += fmt.Sprintf("  observers: ticks=%d go_series=%d profiles=%g alert_profile=%v events=%d scrapes=%d\n",
		r.SamplerTicks, r.RuntimeSeries, r.ProfileCaptures, r.AlertProfile, r.EventsStreamed, r.Scrapes)
	return out
}

// sloInvoker feeds EF call outcomes into a wall-clock SLO tracker on
// the way through to the real client.
type sloInvoker struct {
	inner wire.Invoker
	st    *slo.Tracker
}

func (v sloInvoker) Invoke(key, op string, body []byte, opts wire.CallOptions) ([]byte, error) {
	start := time.Now()
	b, err := v.inner.Invoke(key, op, body, opts)
	if opts.Priority >= wire.EFPriority {
		if err != nil {
			v.st.Observe(false)
		} else {
			v.st.ObserveLatency(time.Since(start))
		}
	}
	return b, err
}

// runObsBench measures the observer stack's cost: EF p99 with the full
// wall-clock observability plane running vs. a bare run of the same
// load, each phase lasting phase (obsPhase when zero). The paper-shaped
// claim: monitoring that drives adaptation must be cheap enough to
// leave on, so the EF tail should move by at most a few percent.
func runObsBench(phase time.Duration) (*obsResult, error) {
	if phase <= 0 {
		phase = obsPhase
	}
	profileDir, err := os.MkdirTemp("", "qosbench-obs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(profileDir)

	// Warm the CPU-profile encoder before anything is measured: the
	// first capture in a process walks the binary's symbol tables to
	// build the profile's function/location records, a one-time cost
	// that would otherwise land inside the first observed phase.
	if err := pprof.StartCPUProfile(io.Discard); err == nil {
		time.Sleep(10 * time.Millisecond)
		pprof.StopCPUProfile()
	}

	plane, err := startObsPlane(phase, profileDir)
	if err != nil {
		return nil, err
	}

	res := &obsResult{}
	var offPool, onPool pooledClass
	var ratios []float64
	for i := 0; i < obsIterations; i++ {
		off, err := benchPhase(phase, obsEFHz, nil)
		if err != nil {
			plane.shutdown(res)
			return nil, err
		}
		offPool.add(off.EF)
		on, err := benchPhase(phase, obsEFHz, plane)
		if err != nil {
			plane.shutdown(res)
			return nil, err
		}
		onPool.add(on.EF)
		if p99 := off.EF.Latency.P99; p99 > 0 {
			ratios = append(ratios, (on.EF.Latency.P99-p99)/p99)
		}
		// BE reports come from the last iteration; their differences
		// across iterations are noise.
		res.OffBE, res.OnBE = off.BE, on.BE
		res.OffRefused, res.OffShed = off.Refused, off.Shed
	}
	plane.shutdown(res)
	loadPerSide := obsIterations * phase
	res.OffEF = offPool.report(loadPerSide)
	res.OnEF = onPool.report(loadPerSide)
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		res.OverheadP99 = ratios[len(ratios)/2]
	}
	return res, nil
}

// pooledClass accumulates one class's counters and raw samples across
// iterations, so percentiles come from one large pooled distribution
// instead of an aggregate of small-sample estimates.
type pooledClass struct {
	rep wire.ClassReport
}

func (p *pooledClass) add(r wire.ClassReport) {
	if p.rep.Errors == nil {
		p.rep.Name = r.Name
		p.rep.Errors = make(map[string]int64)
	}
	p.rep.Offered += r.Offered
	p.rep.Completed += r.Completed
	p.rep.OK += r.OK
	for k, v := range r.Errors {
		p.rep.Errors[k] += v
	}
	p.rep.RawMs = append(p.rep.RawMs, r.RawMs...)
}

func (p *pooledClass) report(loaded time.Duration) wire.ClassReport {
	r := p.rep
	r.Latency = metrics.Summarize(r.RawMs)
	if secs := loaded.Seconds(); secs > 0 {
		r.Throughput = float64(r.OK) / secs
	}
	return r
}

// obsPlane is the run's resident observability stack: one registry,
// bus, sampler, SLO tracker, profiler and HTTP endpoint live for the
// whole run, and each observed phase's fresh server/client is attached
// to them. Between phases the plane is paused — sampler, SLO ticker
// and scraper stopped — so bare phases run fully unobserved, while the
// profiler stays armed across phases, letting its capture cooldown do
// what it does in production: the hot-EF alert triggers one CPU
// capture when it first fires, not one per burst of traffic.
type obsPlane struct {
	reg     *telemetry.Registry
	bus     *events.Bus
	sampler *monitor.Sampler
	st      *slo.Tracker
	prof    *monitor.Profiler

	url      string
	stopHTTP func()

	mu  sync.Mutex // guards srv/cli, swapped per observed phase
	srv *wire.Server
	cli *wire.Client

	scrapeStop chan struct{}
	scrapeDone chan struct{}
	scrapes    int
	scrapeTick int // alternates the scraped endpoint across phases

	eventsDone chan struct{}
	eventsSeen int

	alertCPU atomic.Bool
}

func startObsPlane(phase time.Duration, profileDir string) (*obsPlane, error) {
	p := &obsPlane{reg: telemetry.NewRegistry()}

	// The plane prices monitoring itself — sampler, runtime collector,
	// SLO tracker, profiler, live scrapes — not per-request span
	// tracing, so no tracer is attached to the data path.
	p.bus = events.NewBus(sim.Wall)

	p.sampler = monitor.NewSampler(sim.Wall, p.reg, p.bus, obsSampleEvery)
	rc := monitor.NewRuntimeCollector(p.reg)
	p.sampler.AddCollector(rc.Collect)
	// A rule that is guaranteed to fire under load, so the run prices
	// alert evaluation AND the triggered CPU capture.
	p.sampler.AddRule(&monitor.Rule{
		Name:      "ef_rtt_hot",
		Series:    "wire.client.rtt_ms{band=16000}.window",
		Stat:      monitor.StatP99,
		Op:        monitor.Above,
		Threshold: 0.001, // ms — any completed EF call trips it
		For:       2,
	})

	p.st = slo.NewTracker(sim.Wall, slo.Objective{
		Name:         "ef_latency",
		Goal:         0.999,
		LatencyBound: 250 * time.Millisecond,
		Pairs:        slo.ScaledPairs(2 * phase),
	}, p.bus)

	// Alert-triggered CPU captures with a short window and a cooldown:
	// the capture duty cycle, not the trigger plumbing, is what the
	// data path pays for on small machines, so production-shaped
	// captures stay brief and rate-limited. Periodic heap capture is
	// exercised once after the measured phases (profiling an idle
	// system is free; the capture the run prices fires *under load*
	// via the alert path, which the rule above guarantees).
	prof, err := monitor.NewProfiler(monitor.ProfilerConfig{
		Dir:         profileDir,
		MaxFiles:    4,
		CPUDuration: 40 * time.Millisecond,
		Cooldown:    time.Minute,
		Bus:         p.bus,
		Registry:    p.reg,
	})
	if err != nil {
		return nil, err
	}
	p.prof = prof
	p.bus.Subscribe(func(r events.Record) {
		if r.Kind != events.KindProfile {
			return
		}
		for _, f := range r.Fields {
			if f.K == "kind" && f.V == "cpu" {
				p.alertCPU.Store(true)
			}
		}
	}, events.KindProfile)
	prof.Start()

	ix := monitor.NewIntrospector()
	ix.Add("server", func() any {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.srv == nil {
			return nil
		}
		return p.srv.Snapshot()
	})
	ix.Add("client", func() any {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.cli == nil {
			return nil
		}
		return p.cli.Snapshot()
	})
	ix.Add("slo", func() any { return p.st.Snapshot() })
	url, stopHTTP, err := monitor.StartHTTP("127.0.0.1:0", p.reg,
		monitor.WithIntrospect(ix), monitor.WithEvents(p.bus))
	if err != nil {
		prof.Stop()
		return nil, err
	}
	p.url, p.stopHTTP = url, stopHTTP

	// A streaming /events consumer, counting records until shutdown.
	p.eventsDone = make(chan struct{})
	go func() {
		defer close(p.eventsDone)
		resp, rerr := http.Get("http://" + p.url + "/events")
		if rerr != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			p.eventsSeen++
		}
	}()
	return p, nil
}

// resume attaches a phase's server/client and restarts the sampler,
// the SLO ticker and the live scraper.
func (p *obsPlane) resume(srv *wire.Server, cli *wire.Client) {
	p.mu.Lock()
	p.srv, p.cli = srv, cli
	p.mu.Unlock()
	p.sampler.Start()
	p.st.Start(obsSampleEvery)
	stop := make(chan struct{})
	done := make(chan struct{})
	p.scrapeStop, p.scrapeDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(obsScrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				path := "/metrics"
				if p.scrapeTick%2 == 1 {
					path = "/debug/qos"
				}
				p.scrapeTick++
				resp, rerr := http.Get("http://" + p.url + path)
				if rerr == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					p.scrapes++
				}
			}
		}
	}()
}

// pause stops every periodic observer so the next bare phase runs on a
// quiescent plane, and detaches the phase's server/client.
func (p *obsPlane) pause() {
	close(p.scrapeStop)
	<-p.scrapeDone
	p.sampler.Tick() // final window
	p.sampler.Stop()
	p.st.Stop()
	p.mu.Lock()
	p.srv, p.cli = nil, nil
	p.mu.Unlock()
}

// shutdown tears the plane down and records the accumulated
// observer-activity evidence in res.
func (p *obsPlane) shutdown(res *obsResult) {
	_, _ = p.prof.CaptureHeap("post-run") // heap-capture evidence
	p.prof.Stop()
	p.stopHTTP() // closes the /events stream
	<-p.eventsDone
	res.SamplerTicks = p.sampler.Ticks()
	for _, key := range p.reg.GaugeKeys() {
		if strings.HasPrefix(key, "go.") {
			res.RuntimeSeries++
		}
	}
	res.ProfileCaptures = p.reg.Counter("monitor.profiler.captures", telemetry.L("kind", "cpu")).Value() +
		p.reg.Counter("monitor.profiler.captures", telemetry.L("kind", "heap")).Value()
	res.AlertProfile = p.alertCPU.Load()
	res.EventsStreamed = p.eventsSeen
	res.Scrapes = p.scrapes
}
