// Quickstart: a minimal end-to-end RT-CORBA invocation on the simulated
// substrate.
//
// Two machines are linked by a QoS-capable network; a server activates
// an "echo" servant in a client-propagated POA; the client sets an
// RT-CORBA priority and invokes it. The invocation travels as real GIOP
// bytes, the priority rides the service context, and the servant runs at
// the mapped native priority on the server host.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
)

func main() {
	// 1. Build the system: two machines on a 10 Mbps link.
	sys := core.NewSystem(1)
	defer sys.Close()
	client := sys.AddMachine("client", rtos.HostConfig{Hz: 1e9})
	server := sys.AddMachine("server", rtos.HostConfig{Hz: 1e9})
	sys.Link("client", "server", core.LinkSpec{Bps: 10e6, Delay: time.Millisecond})

	// 2. Server side: a POA with the client-propagated priority model
	//    and an echo servant that reports its dispatch priority.
	srvORB := server.ORB(orb.Config{})
	poa, err := srvORB.CreatePOA("demo", orb.POAConfig{Model: rtcorba.ClientPropagated})
	if err != nil {
		panic(err)
	}
	echo := orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		d := cdr.NewDecoder(req.Body, cdr.LittleEndian)
		msg, err := d.String()
		if err != nil {
			return nil, err
		}
		fmt.Printf("[%v] servant: %q at CORBA priority %d (native %d on %s)\n",
			req.Now(), msg, req.Priority, req.Thread.Priority(), req.Thread.Host().Name())
		e := cdr.NewEncoder(cdr.LittleEndian)
		e.PutString("echo: " + msg)
		return e.Bytes(), nil
	})
	ref, err := poa.Activate("echo", echo)
	if err != nil {
		panic(err)
	}
	fmt.Println("object reference:", ref)

	// 3. Client side: set an RT-CORBA priority and invoke.
	cliORB := client.ORB(orb.Config{})
	client.Host.Spawn("main", 10, func(t *rtos.Thread) {
		if err := cliORB.Current(t).SetPriority(20000); err != nil {
			panic(err)
		}
		body := cdr.NewEncoder(cdr.LittleEndian)
		body.PutString("hello, DRE world")
		reply, err := cliORB.Invoke(t, ref, "echo", body.Bytes())
		if err != nil {
			panic(err)
		}
		d := cdr.NewDecoder(reply, cdr.LittleEndian)
		s, _ := d.String()
		fmt.Printf("[%v] client: received %q\n", t.Now(), s)
	})

	// 4. Run the virtual world.
	sys.RunUntil(time.Second)
}
