// Command qosmon runs the monitoring-plane scenario and renders its
// dashboard: the sampled client round-trip time series (the per-window
// view the paper's Figures 4-7 plot), the per-layer critical-path
// latency breakdown of an exemplar invocation, the QuO contract's
// region timeline, and the unified event timeline merging region
// transitions, alert rule firings, breaker activity, and failovers.
//
// Every region transition in the scenario is driven by a MEASURED
// condition: the application records round-trips into a telemetry
// histogram, the sampler turns the histogram into windows, and the
// contract's system conditions read the sampled series — the paper's
// system-condition-object loop closed through the monitoring plane.
//
// Usage:
//
//	qosmon [-seed N] [-dur D] [-prom] [-http ADDR]
//	qosmon -attach ADDR [-follow D]
//
// -prom appends the full Prometheus text exposition of the telemetry
// registry; -http serves it (plus /debug/pprof) after the run. Output
// is deterministic: repeated runs with the same flags are
// byte-identical.
//
// -attach switches qosmon from simulation to live mode: it connects to
// a running process's observability endpoint (qosserve -metrics or
// qoscall -metrics), dumps the current /debug/qos introspection
// snapshot and the Go runtime gauges from /metrics, then follows the
// /events NDJSON stream for -follow, rendering each record as a
// timeline line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

type options struct {
	seed int64
	dur  time.Duration
	prom bool
}

// run executes the scenario and returns the full dashboard as a string
// plus the populated telemetry registry (for -http serving).
func run(opt options) (string, *telemetry.Registry) {
	r := experiments.RunMonitor(experiments.Options{Seed: opt.seed, Duration: opt.dur})
	end := sim.Time(r.Duration) + sim.Time(r.Every)

	out := fmt.Sprintf("qosmon: live QoS monitoring plane (seed %d, %v virtual, sampling every %v)\n",
		opt.seed, r.Duration, r.Every)
	out += fmt.Sprintf("flood: raw best-effort datagrams in [%v, %v) against the server's 8 Mb/s access link\n\n",
		r.LoadStart, r.LoadEnd)

	out += r.RTT.RenderTable("Sampled client RTT (app.rtt_ms windows, ms)").Render()
	out += fmt.Sprintf("p95 per window: %s\n\n", r.RTT.Sparkline(monitor.StatP95))

	tb := metrics.NewTable(fmt.Sprintf("Critical-path latency breakdown (exemplar trace %d)", r.ExemplarTrace),
		"Layer", "Time", "Share")
	var sum time.Duration
	for _, sh := range r.Breakdown {
		sum += time.Duration(sh.Time)
		tb.AddRow(sh.Layer, time.Duration(sh.Time).String(),
			fmt.Sprintf("%.1f%%", 100*time.Duration(sh.Time).Seconds()/time.Duration(r.BreakdownTotal).Seconds()))
	}
	out += tb.Render()
	out += fmt.Sprintf("layer sum = %v, end-to-end = %v\n\n", sum, time.Duration(r.BreakdownTotal))

	out += "contract region timeline (every transition measurement-driven):\n"
	for _, s := range r.Regions {
		out += fmt.Sprintf("%12v  %-10s %v\n", time.Duration(s.Start), s.Region, s.DurationAt(end))
	}
	out += "\nunified event timeline (region / alert / breaker / failover):\n"
	out += r.Timeline.Render(events.KindRegion, events.KindAlert, events.KindBreaker, events.KindFailover)
	out += "\nevent counts by kind:\n"
	out += r.Timeline.RenderCounts()

	out += "\nclosed-loop summary:\n"
	out += fmt.Sprintf("  client invocations             %d sent, %d ok, %d deadline-expired, %d failed\n",
		r.Sent, r.OK, r.Deadline, r.Failed)
	out += fmt.Sprintf("  flood offered                  %d datagrams\n", r.BulkOffer)
	out += fmt.Sprintf("  qosket actions                 %d escalation(s) to the EF band, %d de-escalation(s)\n",
		r.Escalate, r.Deescalate)
	for _, reg := range []string{"normal", "degraded", "protected"} {
		out += fmt.Sprintf("  time in %-22s %v\n", reg, r.TimeIn[reg])
	}
	driven := "NO"
	if r.ClosedLoop() {
		driven = "yes"
	}
	out += fmt.Sprintf("  transitions from sampled data  %s (%d region transitions, conditions read only sampled series)\n",
		driven, r.Transitions)

	if opt.prom {
		out += "\n/metrics exposition:\n"
		out += monitor.RenderProm(r.Reg)
	}
	return out, r.Reg
}

// attach renders a live dashboard from a running process's
// observability endpoint: the /debug/qos snapshot, the Go runtime
// gauges, and the /events stream followed for the given duration.
func attach(w io.Writer, addr string, follow time.Duration) error {
	base := "http://" + addr
	fmt.Fprintf(w, "qosmon: attached to %s\n\n", addr)

	resp, err := http.Get(base + "/debug/qos")
	if err != nil {
		return fmt.Errorf("GET /debug/qos: %w", err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read /debug/qos: %w", err)
	}
	fmt.Fprintf(w, "live QoS state (/debug/qos):\n%s\n", strings.TrimRight(string(snap), "\n"))

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	var goLines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "go_") {
			goLines = append(goLines, line)
		}
	}
	resp.Body.Close()
	sort.Strings(goLines)
	fmt.Fprintf(w, "\nGo runtime (/metrics, go_*):\n")
	for _, l := range goLines {
		fmt.Fprintf(w, "  %s\n", l)
	}

	if follow <= 0 {
		return nil
	}
	// The stream is followed through server restarts: an early EOF or
	// read error triggers a reconnect with capped doubling backoff
	// (reset after any successful read) until the follow window closes.
	fmt.Fprintf(w, "\nevent stream (/events, following for %v):\n", follow)
	deadline := time.Now().Add(follow)
	const baseBackoff, maxBackoff = 250 * time.Millisecond, 2 * time.Second
	backoff := baseBackoff
	seen, reconnects := 0, 0
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		n, err := followEvents(w, base, remain)
		seen += n
		if n > 0 {
			backoff = baseBackoff
		}
		if time.Until(deadline) <= 0 {
			break
		}
		reconnects++
		if err != nil {
			fmt.Fprintf(w, "  (stream lost: %v; reconnecting in %v)\n", err, backoff)
		} else {
			fmt.Fprintf(w, "  (stream closed; reconnecting in %v)\n", backoff)
		}
		sleep := backoff
		if d := time.Until(deadline); sleep > d {
			sleep = d
		}
		time.Sleep(sleep)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	fmt.Fprintf(w, "qosmon: %d event(s), %d reconnect(s) in %v\n", seen, reconnects, follow)
	return nil
}

// followEvents makes one /events connection and renders records until
// the stream ends or the remaining follow window expires. It returns
// how many records it saw; err is the connection-level failure, if any
// (a deadline-triggered close also surfaces as a read error — the
// caller distinguishes by checking the clock).
func followEvents(w io.Writer, base string, remain time.Duration) (int, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := (&http.Client{Timeout: 0}).Do(req)
	if err != nil {
		return 0, fmt.Errorf("GET /events: %w", err)
	}
	defer resp.Body.Close()
	cut := time.AfterFunc(remain, func() { resp.Body.Close() })
	defer cut.Stop()
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec monitor.RecordJSON
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		fields := make([]string, 0, len(rec.Fields))
		for k, v := range rec.Fields {
			fields = append(fields, k+"="+v)
		}
		sort.Strings(fields)
		ts := rec.Wall
		if t, terr := time.Parse(time.RFC3339Nano, rec.Wall); terr == nil {
			ts = t.Local().Format("15:04:05.000")
		}
		fmt.Fprintf(w, "  %s  %-9s %-12s %s\n", ts, rec.Kind, rec.Source, strings.Join(fields, " "))
		seen++
	}
	return seen, sc.Err()
}

func main() {
	opt := options{}
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof on this address after the run")
	attachAddr := flag.String("attach", "", "attach to a live observability endpoint (host:port) instead of simulating")
	follow := flag.Duration("follow", 5*time.Second, "how long -attach follows the /events stream (0 = snapshot only)")
	flag.Int64Var(&opt.seed, "seed", 42, "simulation seed")
	flag.DurationVar(&opt.dur, "dur", 0, "virtual duration (0 = default 12s; flood in the middle third)")
	flag.BoolVar(&opt.prom, "prom", false, "append the Prometheus text exposition of the registry")
	flag.Parse()

	if *attachAddr != "" {
		if err := attach(os.Stdout, *attachAddr, *follow); err != nil {
			fmt.Fprintln(os.Stderr, "qosmon:", err)
			os.Exit(1)
		}
		return
	}

	out, reg := run(opt)
	fmt.Print(out)

	if *httpAddr != "" {
		fmt.Fprintf(os.Stderr, "qosmon: serving /metrics and /debug/pprof on %s\n", *httpAddr)
		if err := http.ListenAndServe(*httpAddr, monitor.NewMux(reg)); err != nil {
			fmt.Fprintln(os.Stderr, "qosmon:", err)
			os.Exit(1)
		}
	}
}
