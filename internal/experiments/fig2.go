package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
)

// Figure 2 reproduces the paper's priority-propagation example: a client
// on QNX invokes a middle-tier server on LynxOS, which invokes a server
// on Solaris. One CORBA priority (100) rides the request's service
// context end to end; each host's installed custom mapping turns it into
// that host's native priority (QNX 16, LynxOS 128, Solaris 136), and the
// wire carries DSCP EF.

// Fig2CORBAPriority is the service-context priority from the figure.
const Fig2CORBAPriority rtcorba.Priority = 100

// Fig2Hop records what one hop observed.
type Fig2Hop struct {
	Host     string
	OS       string
	CORBA    rtcorba.Priority
	Native   rtos.Priority
	WireDSCP netsim.DSCP
}

// Figure2Result is the observed end-to-end propagation.
type Figure2Result struct {
	Hops []Fig2Hop
}

// RunFigure2 executes the three-tier invocation and reports what each
// hop observed.
func RunFigure2(opt Options) Figure2Result { return run(figure2(opt)) }

// figure2 lists Figure 2's one case and assembles its result.
func figure2(opt Options) ([]simCase, func() Figure2Result) {
	var r Figure2Result
	return []simCase{{"fig2: priority propagation", func() { r = runFigure2(opt) }}},
		func() Figure2Result { return r }
}

func runFigure2(opt Options) Figure2Result {
	sys := core.NewSystem(opt.seed())
	defer sys.Close()
	client := sys.AddMachine("client", rtos.HostConfig{Priorities: rtos.RangeQNX})
	middle := sys.AddMachine("middle", rtos.HostConfig{Priorities: rtos.RangeLynxOS})
	server := sys.AddMachine("server", rtos.HostConfig{Priorities: rtos.RangeSolaris})
	sys.AddRouter("router")
	spec := core.LinkSpec{Bps: 100e6, Delay: 100 * time.Microsecond, Profile: core.ProfileDiffServ}
	sys.Link("client", "router", spec)
	sys.Link("middle", "router", spec)
	sys.Link("server", "router", spec)

	// Every hop marks this activity's GIOP traffic EF.
	efMapping := rtcorba.BandedDSCPMapping{Bands: []rtcorba.DSCPBand{{From: 0, DSCP: netsim.DSCPEF}}}
	cliORB := client.ORB(orb.Config{NetMapping: efMapping})
	midORB := middle.ORB(orb.Config{NetMapping: efMapping})
	srvORB := server.ORB(orb.Config{})

	// Custom priority mappings reproducing the figure's native values.
	cliORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 16}}})
	midORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 128}}})
	srvORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 136}}})

	result := Figure2Result{}
	record := func(host, os string, req *orb.ServerRequest, dscp netsim.DSCP) {
		result.Hops = append(result.Hops, Fig2Hop{
			Host:     host,
			OS:       os,
			CORBA:    req.Priority,
			Native:   req.Thread.Priority(),
			WireDSCP: dscp,
		})
	}

	srvPOA, err := srvORB.CreatePOA("app", orb.POAConfig{Model: rtcorba.ClientPropagated})
	if err != nil {
		panic(err)
	}
	srvRef, err := srvPOA.Activate("final", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		record("server", "Solaris", req, netsim.DSCPEF)
		return nil, nil
	}))
	if err != nil {
		panic(err)
	}

	midPOA, err := midORB.CreatePOA("app", orb.POAConfig{Model: rtcorba.ClientPropagated})
	if err != nil {
		panic(err)
	}
	midRef, err := midPOA.Activate("relay", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		record("middle", "LynxOS", req, netsim.DSCPEF)
		// Propagate the same CORBA priority onward.
		_, err := midORB.InvokeOpt(req.Thread, srvRef, "work", nil, orb.InvokeOptions{Priority: req.Priority})
		return nil, err
	}))
	if err != nil {
		panic(err)
	}

	client.Host.Spawn("client", 1, func(t *rtos.Thread) {
		if err := cliORB.Current(t).SetPriority(Fig2CORBAPriority); err != nil {
			panic(err)
		}
		result.Hops = append(result.Hops, Fig2Hop{
			Host:     "client",
			OS:       "QNX",
			CORBA:    Fig2CORBAPriority,
			Native:   t.Priority(),
			WireDSCP: netsim.DSCPEF,
		})
		if _, err := cliORB.Invoke(t, midRef, "work", nil); err != nil {
			panic(fmt.Sprintf("fig2 invocation: %v", err))
		}
	})
	sys.RunUntil(5 * time.Second)
	return result
}

// Render prints the propagation table.
func (r Figure2Result) Render() string {
	tb := metrics.NewTable("Figure 2 — priority propagation (RT-CORBA + DiffServ)",
		"Hop", "OS", "CORBA Priority", "Native Priority", "DSCP")
	for _, h := range r.Hops {
		tb.AddRow(h.Host, h.OS,
			fmt.Sprintf("%d", h.CORBA),
			fmt.Sprintf("%d", h.Native),
			h.WireDSCP.String(),
		)
	}
	return tb.Render()
}
