// qosserve is the real-socket QoS server: a wire.Server on actual TCP
// with an expedited and a best-effort priority lane, an echo servant
// and a media-frame servant, and an optional live observability plane.
// It is the process qoscall generates load against — the wall-clock
// counterpart of the simulated experiments.
//
//	qosserve -addr 127.0.0.1:7316 -metrics 127.0.0.1:9316
//	qoscall  -addr 127.0.0.1:7316 -duration 5s
//	qosmon   -attach 127.0.0.1:9316
//
// With -metrics set, the process serves Prometheus exposition plus Go
// runtime metrics on /metrics, live per-lane/SLO introspection as JSON
// on /debug/qos, an NDJSON event stream on /events, and pprof under
// /debug/pprof/. With -profile-dir set, a bounded on-disk ring of
// pprof captures is maintained: periodic heap snapshots plus a CPU
// profile captured automatically whenever an alert rule or SLO burn
// starts firing.
//
// The servant pair mirrors the repo's simulated workloads: app/echo
// returns the request body after -service worth of work (the imager
// shape), app/media returns a -frame-size byte frame (the AV-streams
// shape), so EF/BE tail separation measured here is directly comparable
// to the virtual-time figures. A real-time event channel is hosted at
// pubsub/chan for qospub: publishes are admission-controlled, fan-out
// rides the priority bands, and a firing alert or SLO burn degrades
// best-effort subscribers until it resolves.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/monitor"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/slo"
	"repro/internal/trace/telemetry"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7316", "TCP listen address")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/qos, /events and /debug/pprof on this address (empty = off)")
	efWorkers := flag.Int("ef-workers", 2, "workers in the expedited lane")
	beWorkers := flag.Int("be-workers", 1, "workers in the best-effort lane")
	queue := flag.Int("queue", 256, "per-lane queue limit (full lanes shed with TRANSIENT)")
	service := flag.Duration("service", time.Millisecond, "simulated per-request service time")
	frameSize := flag.Int("frame-size", 32<<10, "app/media reply frame size in bytes")
	sampleEvery := flag.Duration("sample-every", time.Second, "monitor sampler window length")
	sloBound := flag.Duration("slo-bound", 250*time.Millisecond, "EF latency bound for the ef_latency SLO")
	alertQueueMS := flag.Float64("alert-queue-ms", 50, "fire ef_queue_hot when EF p99 queueing exceeds this many ms")
	profileDir := flag.String("profile-dir", "", "capture pprof profiles into this directory (empty = off)")
	profileEvery := flag.Duration("profile-every", time.Minute, "periodic heap-capture interval when -profile-dir is set")
	flag.Parse()

	reg := telemetry.NewRegistry()
	tracer := wire.NewTracer()
	bus := events.NewBus(sim.Wall)
	srv, err := wire.NewServer(wire.ServerConfig{
		Lanes: []wire.LaneConfig{
			{Priority: 0, Workers: *beWorkers, QueueLimit: *queue},
			{Priority: wire.EFPriority, Workers: *efWorkers, QueueLimit: *queue},
		},
		Registry: reg,
		Tracer:   tracer,
		Bus:      bus,
		Name:     "qosserve",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosserve: %v\n", err)
		os.Exit(1)
	}

	// The ef_latency SLO is fed from the servant side: every expedited
	// request's service time counts against the objective.
	st := slo.NewTracker(sim.Wall, slo.Objective{
		Name:         "ef_latency",
		Goal:         0.999,
		LatencyBound: *sloBound,
		Pairs:        slo.ScaledPairs(10 * time.Minute),
	}, bus)

	observed := func(h wire.Handler) wire.Handler {
		return wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
			start := time.Now()
			body, err := h.Dispatch(req)
			if req.Priority >= wire.EFPriority {
				if err != nil {
					st.Observe(false)
				} else {
					st.ObserveLatency(time.Since(start))
				}
			}
			return body, err
		})
	}

	work := *service
	srv.Register("app/echo", observed(wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
		time.Sleep(work)
		return req.Body, nil
	})))
	frame := make([]byte, *frameSize)
	for i := range frame {
		frame[i] = byte(i)
	}
	srv.Register("app/media", observed(wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
		time.Sleep(work)
		return frame, nil
	})))

	// The process also hosts a real-time event channel at pubsub/chan:
	// qospub publishes and subscribes against it over the same banded
	// TCP plane. Drops and lag surface on the event bus, and a firing
	// alert or SLO burn degrades best-effort fan-out until it resolves.
	ch := pubsub.New(pubsub.ChannelConfig{
		Name: "qosserve", Async: true,
		Registry: reg, Tracer: tracer,
	})
	defer ch.Close()
	chanHost, err := wire.NewChannelHost(ch, wire.ChannelHostConfig{Tracer: tracer})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosserve: channel host: %v\n", err)
		os.Exit(1)
	}
	defer chanHost.Close()
	srv.Register("pubsub/chan", chanHost)
	monitor.WirePubSub(bus, ch)
	degrade := monitor.DegradePubSubOnBurn(bus, ch)
	defer degrade.Cancel()

	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosserve: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("qosserve: listening on %s (EF lane floor %d: %d workers; BE lane: %d workers; queue %d)\n",
		bound, wire.EFPriority, *efWorkers, *beWorkers, *queue)

	// Wall-clock sampler: closes telemetry windows, feeds alert rules,
	// and polls the Go runtime (goroutines, heap, GC pauses, scheduling
	// latency) into the same registry the exposition endpoint serves.
	sampler := monitor.NewSampler(sim.Wall, reg, bus, *sampleEvery)
	sampler.AddCollector(monitor.NewRuntimeCollector(reg).Collect)
	sampler.AddRule(&monitor.Rule{
		Name:      "ef_queue_hot",
		Series:    "wire.server.queue_ms{lane=" + strconv.Itoa(int(wire.EFPriority)) + "}.window",
		Stat:      monitor.StatP99,
		Op:        monitor.Above,
		Threshold: *alertQueueMS,
		For:       3,
	})
	sampler.Start()
	defer sampler.Stop()
	st.Start(*sampleEvery)
	defer st.Stop()

	if *profileDir != "" {
		prof, perr := monitor.NewProfiler(monitor.ProfilerConfig{
			Dir:      *profileDir,
			Every:    *profileEvery,
			Bus:      bus,
			Registry: reg,
		})
		if perr != nil {
			fmt.Fprintf(os.Stderr, "qosserve: profiler: %v\n", perr)
			os.Exit(1)
		}
		prof.Start()
		defer prof.Stop()
		fmt.Printf("qosserve: profiling to %s (periodic heap every %v, CPU on alert)\n", *profileDir, *profileEvery)
	}

	if *metricsAddr != "" {
		ix := monitor.NewIntrospector()
		ix.Add("server", func() any { return srv.Snapshot() })
		ix.Add("slo", func() any { return st.Snapshot() })
		ix.Add("pubsub", func() any { return ch.Snapshot() })
		maddr, stop, err := monitor.StartHTTP(*metricsAddr, reg,
			monitor.WithIntrospect(ix), monitor.WithEvents(bus))
		if err != nil {
			fmt.Fprintf(os.Stderr, "qosserve: metrics: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("qosserve: metrics on http://%s/metrics (introspection /debug/qos, events /events, pprof /debug/pprof/)\n", maddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("qosserve: draining...")
	srv.Shutdown(5 * time.Second)
	fmt.Printf("qosserve: done; accepted %g connections, %d spans collected\n",
		reg.Counter("wire.server.accepts").Value(), tracer.Len())
}
