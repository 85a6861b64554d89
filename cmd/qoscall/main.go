// qoscall is the wall-clock load generator for qosserve: open-loop
// mixed expedited/best-effort GIOP traffic over real TCP, with private
// banded connections per class, reporting wall-clock p50/p95/p99 and
// throughput per class plus an error breakdown.
//
//	qosserve -addr 127.0.0.1:7316 &
//	qoscall  -addr 127.0.0.1:7316 -duration 5s -ef-hz 200 -be-hz 1200
//
// The expedited class rides CORBA priority 16000 (qosserve's EF lane
// floor) on its own connection band; best-effort rides priority 0. With
// -be-hz above the BE lane's service capacity the BE class saturates —
// queueing delay plus TRANSIENT sheds — while EF latency should hold
// its no-load shape. That contrast is the point of the tool.
//
// With -failover, -addr becomes an ordered comma-separated endpoint
// set (primary first) driven through a fault-tolerant group client:
// per-endpoint circuit breakers, heartbeat health probes, a shared
// retry budget, and FT-context-stamped at-most-once failover. Kill the
// primary mid-run (or front it with qoschaos) and the load keeps
// completing against the alternates:
//
//	qosserve -addr 127.0.0.1:7316 &
//	qosserve -addr 127.0.0.1:7317 &
//	qoscall  -addr 127.0.0.1:7316,127.0.0.1:7317 -failover -duration 5s
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7316", "qosserve TCP address")
	duration := flag.Duration("duration", 3*time.Second, "load duration")
	efHz := flag.Int("ef-hz", 200, "expedited offered rate (req/s; 0 disables the class)")
	beHz := flag.Int("be-hz", 1200, "best-effort offered rate (req/s; 0 disables the class)")
	payload := flag.Int("payload", 64, "request body bytes")
	op := flag.String("key", "app/echo", "object key to invoke")
	efTimeout := flag.Duration("ef-timeout", 500*time.Millisecond, "EF per-call RELATIVE_RT_TIMEOUT")
	beTimeout := flag.Duration("be-timeout", 5*time.Second, "BE per-call RELATIVE_RT_TIMEOUT")
	failover := flag.Bool("failover", false, "treat -addr as a comma-separated endpoint set (primary first) and drive it through the fault-tolerant group client")
	metricsAddr := flag.String("metrics", "", "serve the client-side registry (/metrics, /debug/qos, /events) on this address during the run (empty = off)")
	flag.Parse()

	// With -metrics, the client side gets its own observability plane:
	// band connections, RTT histograms and retry-budget level over
	// the same exposition/introspection endpoints qosserve serves.
	reg := telemetry.NewRegistry()
	var bus *events.Bus
	ix := monitor.NewIntrospector()
	if *metricsAddr != "" {
		bus = events.NewBus(sim.Wall)
	}

	ccfg := wire.ClientConfig{
		Bands:    []int16{0, wire.EFPriority},
		Registry: reg,
		Bus:      bus,
		Name:     "qoscall",
	}
	var cli wire.Invoker
	if *failover {
		endpoints := strings.Split(*addr, ",")
		ccfg.Name = "qoscall.group"
		g, err := wire.NewGroupClient(wire.GroupConfig{Endpoints: endpoints, Client: ccfg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoscall: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			fmt.Printf("failover: primary=%s budget spent=%d denied=%d\n",
				endpoints[g.Primary()], g.Budget().Spent(), g.Budget().Denied())
			g.Close()
		}()
		cli = g
		ix.Add("group", func() any { return g.Snapshot() })
	} else {
		ccfg.Addr = *addr
		c, err := wire.NewClient(ccfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoscall: %v\n", err)
			os.Exit(1)
		}
		defer c.Close()
		cli = c
		ix.Add("client", func() any { return c.Snapshot() })
	}

	if *metricsAddr != "" {
		sampler := monitor.NewSampler(sim.Wall, reg, bus, time.Second)
		sampler.AddCollector(monitor.NewRuntimeCollector(reg).Collect)
		if *failover {
			// Mirror the retry-budget level into a gauge each window so
			// it shows up on /metrics alongside the snapshot JSON.
			g := cli.(*wire.GroupClient)
			budgetG := reg.Gauge("wire.group.retry_budget_tokens")
			sampler.AddCollector(func() { budgetG.Set(g.Budget().Tokens()) })
		}
		sampler.Start()
		defer sampler.Stop()
		maddr, stop, err := monitor.StartHTTP(*metricsAddr, reg,
			monitor.WithIntrospect(ix), monitor.WithEvents(bus))
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoscall: metrics: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("qoscall: client metrics on http://%s/metrics (introspection /debug/qos, events /events)\n", maddr)
	}

	var classes []wire.LoadClass
	// The echo servant is idempotent, so under -failover ambiguous
	// failures may retry cross-endpoint.
	if *efHz > 0 {
		classes = append(classes, wire.LoadClass{
			Name: "EF", Priority: wire.EFPriority, Hz: *efHz,
			Payload: *payload, Timeout: *efTimeout, Key: *op, Idempotent: *failover,
		})
	}
	if *beHz > 0 {
		classes = append(classes, wire.LoadClass{
			Name: "BE", Priority: 0, Hz: *beHz,
			Payload: *payload, Timeout: *beTimeout, Key: *op, Idempotent: *failover,
		})
	}
	if len(classes) == 0 {
		fmt.Fprintln(os.Stderr, "qoscall: both classes disabled")
		os.Exit(2)
	}

	fmt.Printf("qoscall: %v of open-loop load against %s (EF %d/s @prio %d, BE %d/s @prio 0)\n",
		*duration, *addr, *efHz, wire.EFPriority, *beHz)
	reports := wire.RunLoad(cli, *duration, classes)
	fmt.Print(wire.RenderReports(reports))

	// A connect-refused endpoint shows up as zero completions.
	for _, r := range reports {
		if r.OK == 0 {
			fmt.Fprintf(os.Stderr, "qoscall: class %s completed nothing (server down?)\n", r.Name)
			os.Exit(1)
		}
	}
}
