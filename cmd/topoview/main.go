// Command topoview builds the evaluation topologies and dumps their
// nodes, links, routes and reservation state — a debugging aid for the
// simulated testbeds.
//
// Usage:
//
//	topoview [-topo diffserv|reservation]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func main() {
	topo := flag.String("topo", "diffserv", "topology to inspect: diffserv (figures 4-6) or reservation (figure 7 / table 1)")
	flag.Parse()

	out, err := run(*topo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(out)
}

// run builds the named topology with the experiments' own builders and
// returns its dump.
func run(topo string) (string, error) {
	var sys *core.System
	switch topo {
	case "diffserv":
		sys = experiments.DiffServTopology(1)
	case "reservation":
		sys = reservationTopo()
	default:
		return "", fmt.Errorf("unknown topology %q", topo)
	}
	defer sys.Close()
	return dump(sys), nil
}

// reservationTopo is the reservation testbed with one installed
// reservation, so the dump shows reserved bandwidth on the link.
func reservationTopo() *core.System {
	sys := experiments.ReservationTopology(1)
	flow := sys.Net.NewFlowID()
	sys.K.Go("reserve", func(p *sim.Proc) {
		_, err := sys.Net.ReserveFlow(p, netsim.ReservationSpec{
			Flow: flow, Src: sys.Machine("sender").Node, Dst: sys.Machine("receiver").Node, RateBps: 1.2e6,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "reservation failed: %v\n", err)
		}
	})
	sys.RunUntil(time.Second)
	return sys
}

func dump(sys *core.System) string {
	var out strings.Builder
	nodes := metrics.NewTable("Nodes", "ID", "Name", "Kind", "Quantum")
	for _, nd := range sys.Net.Nodes() {
		kind, quantum := "router", "-"
		if m := sys.Machine(nd.Name()); m != nil {
			kind, quantum = "host", m.Host.Quantum().String()
		}
		nodes.AddRow(fmt.Sprintf("%d", nd.ID()), nd.Name(), kind, quantum)
	}
	fmt.Fprintln(&out, nodes.Render())

	links := metrics.NewTable("Links", "From", "To", "Bandwidth", "Delay", "Queue limit", "Queue backlog", "Reserved")
	for _, l := range sys.Net.Links() {
		reserved := "n/a"
		if rc, ok := l.Queue().(netsim.ReservationCapable); ok {
			reserved = fmt.Sprintf("%.2f Mbps", rc.ReservedRate()/1e6)
		}
		links.AddRow(
			l.From().Name(), l.To().Name(),
			fmt.Sprintf("%.1f Mbps", l.Bps()/1e6),
			l.Delay().String(),
			fmt.Sprintf("%d B", l.Queue().Limit()),
			fmt.Sprintf("%d B", l.Queue().Backlog()),
			reserved,
		)
	}
	fmt.Fprintln(&out, links.Render())

	routes := metrics.NewTable("Routes (host pairs)", "From", "To", "Hops", "Path")
	all := sys.Net.Nodes()
	for _, a := range all {
		for _, b := range all {
			if a == b || a.Router() || b.Router() {
				continue
			}
			path := sys.Net.Route(a.ID(), b.ID())
			if path == nil {
				routes.AddRow(a.Name(), b.Name(), "-", "unreachable")
				continue
			}
			desc := a.Name()
			for _, l := range path {
				desc += " -> " + l.To().Name()
			}
			routes.AddRow(a.Name(), b.Name(), fmt.Sprintf("%d", len(path)), desc)
		}
	}
	fmt.Fprintln(&out, routes.Render())
	return out.String()
}
