// Prioritypropagation: the paper's Figure 2 walked end to end.
//
// A client on QNX invokes a middle-tier server on LynxOS which invokes a
// back-end server on Solaris. One CORBA priority (100) is carried in the
// GIOP request's RTCorbaPriority service context; each ORB's installed
// custom priority mapping turns it into that host's native priority
// (QNX 16, LynxOS 128, Solaris 136), and the network carries the
// invocations with the expedited-forwarding DSCP.
//
// Run with: go run ./examples/prioritypropagation
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
)

func main() {
	sys := core.NewSystem(3)
	defer sys.Close()
	client := sys.AddMachine("client", rtos.HostConfig{Priorities: rtos.RangeQNX})
	middle := sys.AddMachine("middle", rtos.HostConfig{Priorities: rtos.RangeLynxOS})
	server := sys.AddMachine("server", rtos.HostConfig{Priorities: rtos.RangeSolaris})
	sys.AddRouter("router")
	link := core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond, Profile: core.ProfileDiffServ}
	sys.Link("client", "router", link)
	sys.Link("middle", "router", link)
	sys.Link("server", "router", link)

	// All three ORBs mark this application's traffic EF.
	ef := rtcorba.BandedDSCPMapping{Bands: []rtcorba.DSCPBand{{From: 0, DSCP: netsim.DSCPEF}}}
	cliORB := client.ORB(orb.Config{NetMapping: ef})
	midORB := middle.ORB(orb.Config{NetMapping: ef})
	srvORB := server.ORB(orb.Config{})

	// Install the custom mappings from the figure via each ORB's
	// priority mapping manager.
	cliORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 16}}})
	midORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 128}}})
	srvORB.MappingManager().Install(rtcorba.StepMapping{Steps: []rtcorba.Step{{From: 0, Native: 136}}})

	report := func(host, os string, req *orb.ServerRequest) {
		fmt.Printf("  %-7s (%-7s): service context priority %3d -> native priority %3d\n",
			host, os, req.Priority, req.Thread.Priority())
	}

	srvPOA, err := srvORB.CreatePOA("app", orb.POAConfig{Model: rtcorba.ClientPropagated})
	if err != nil {
		panic(err)
	}
	srvRef, err := srvPOA.Activate("backend", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		report("server", "Solaris", req)
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
		report("middle", "LynxOS", req)
		// Re-invoke downstream at the same CORBA priority.
		_, err := midORB.InvokeOpt(req.Thread, srvRef, "work", nil, orb.InvokeOptions{Priority: req.Priority})
		return nil, err
	}))
	if err != nil {
		panic(err)
	}

	client.Host.Spawn("client", 1, func(t *rtos.Thread) {
		const corbaPrio = 100
		if err := cliORB.Current(t).SetPriority(corbaPrio); err != nil {
			panic(err)
		}
		fmt.Printf("end-to-end invocation at CORBA priority %d, DSCP %v:\n", corbaPrio, netsim.DSCPEF)
		fmt.Printf("  %-7s (%-7s): RTCurrent priority  %3d -> native priority %3d\n",
			"client", "QNX", corbaPrio, t.Priority())
		if _, err := cliORB.Invoke(t, midRef, "work", nil); err != nil {
			panic(err)
		}
		fmt.Println("invocation completed; every hop honoured the propagated priority")
	})
	sys.RunUntil(time.Second)
}
