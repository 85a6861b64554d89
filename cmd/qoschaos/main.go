// qoschaos is the standalone chaos TCP proxy: put it between qoscall
// and qosserve (or any GIOP speaker) and play a scripted fault schedule
// against the connection — added latency, bandwidth throttling,
// fragmented writes, header corruption, RSTs, half-open blackholes, and
// endpoint kill/restart windows.
//
//	qosserve -addr 127.0.0.1:7316 &
//	qoschaos -listen 127.0.0.1:7399 -target 127.0.0.1:7316 \
//	         -schedule latency:1s:2s:40ms,kill:4s:1s,blackhole:6s:500ms
//	qoscall  -addr 127.0.0.1:7399,127.0.0.1:7316 -failover -duration 8s
//
// Each schedule entry is kind:at:duration[:param] — at and duration are
// Go durations relative to startup; param is the latency (latency), the
// bytes/second cap (throttle), the max write size (partial), or the
// per-chunk probability (corrupt). rst takes only at. Fault boundaries
// are logged as they fire; the proxy runs until the schedule ends (plus
// -linger) or indefinitely with -serve.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/sim"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7399", "proxy listen address")
	target := flag.String("target", "127.0.0.1:7316", "upstream endpoint to torture")
	schedule := flag.String("schedule", "", "comma-separated fault script: kind:at:duration[:param]")
	seed := flag.Int64("seed", 42, "corruption stream seed")
	serve := flag.Bool("serve", false, "keep proxying after the schedule ends (until interrupted)")
	linger := flag.Duration("linger", time.Second, "extra proxy time after the last scheduled fault")
	flag.Parse()

	faults, err := parseSchedule(*schedule)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoschaos: %v\n", err)
		os.Exit(2)
	}

	bus := events.NewBus(sim.Wall)
	bus.Subscribe(func(r events.Record) { fmt.Println(r.String()) }, events.KindChaos)
	p, err := chaos.New(chaos.Config{
		Listen:   *listen,
		Target:   *target,
		Schedule: faults,
		Seed:     *seed,
		Bus:      bus,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoschaos: %v\n", err)
		os.Exit(1)
	}
	if err := p.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "qoschaos: %v\n", err)
		os.Exit(1)
	}
	defer p.Close()
	fmt.Printf("qoschaos: %s -> %s, %d scheduled fault(s), seed %d\n",
		p.Addr(), *target, len(faults), *seed)

	if *serve {
		select {} // proxy until killed
	}
	end := *linger
	for _, f := range faults {
		if t := f.At + f.Duration + *linger; t > end {
			end = t
		}
	}
	time.Sleep(end)
	fmt.Println("qoschaos: schedule complete")
}

// parseSchedule turns "kind:at:duration[:param],..." into faults.
func parseSchedule(s string) ([]chaos.Fault, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []chaos.Fault
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("schedule entry %q: want kind:at:duration[:param]", entry)
		}
		f := chaos.Fault{Kind: chaos.FaultKind(parts[0])}
		at, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("schedule entry %q: at: %v", entry, err)
		}
		f.At = at
		if len(parts) > 2 {
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("schedule entry %q: duration: %v", entry, err)
			}
			f.Duration = d
		}
		param := ""
		if len(parts) > 3 {
			param = parts[3]
		}
		switch f.Kind {
		case chaos.FaultLatency:
			if param == "" {
				return nil, fmt.Errorf("schedule entry %q: latency needs a duration param", entry)
			}
			if f.Latency, err = time.ParseDuration(param); err != nil {
				return nil, fmt.Errorf("schedule entry %q: latency: %v", entry, err)
			}
		case chaos.FaultThrottle:
			if f.Bps, err = strconv.Atoi(param); err != nil || f.Bps <= 0 {
				return nil, fmt.Errorf("schedule entry %q: throttle needs a positive bytes/sec param", entry)
			}
		case chaos.FaultPartial:
			if param != "" {
				if f.Chunk, err = strconv.Atoi(param); err != nil {
					return nil, fmt.Errorf("schedule entry %q: partial: %v", entry, err)
				}
			}
		case chaos.FaultCorrupt:
			if param != "" {
				if f.Prob, err = strconv.ParseFloat(param, 64); err != nil {
					return nil, fmt.Errorf("schedule entry %q: corrupt: %v", entry, err)
				}
			}
		case chaos.FaultRST, chaos.FaultBlackhole, chaos.FaultKill:
			// no param
		default:
			return nil, fmt.Errorf("schedule entry %q: unknown fault kind %q", entry, parts[0])
		}
		out = append(out, f)
	}
	return out, nil
}
