package resmgr

import (
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtos"
	"repro/internal/sim"
)

type rig struct {
	k       *sim.Kernel
	net     *netsim.Network
	cliHost *rtos.Host
	srvHost *rtos.Host
	cli     *orb.ORB
	srv     *orb.ORB
}

func newRig() *rig {
	k := sim.NewKernel(1)
	n := netsim.New(k)
	cn := n.AddHost("client")
	sn := n.AddHost("server")
	mk := func() netsim.Qdisc { return netsim.NewIntServ(netsim.NewFIFO(64 * 1024)) }
	n.Connect(cn, sn,
		netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond, Queue: mk()},
		netsim.LinkConfig{Bps: 10e6, Delay: time.Millisecond, Queue: mk()})
	ch := rtos.NewHost(k, "client", rtos.HostConfig{Quantum: time.Millisecond})
	sh := rtos.NewHost(k, "server", rtos.HostConfig{Quantum: time.Millisecond})
	return &rig{
		k: k, net: n, cliHost: ch, srvHost: sh,
		cli: orb.New("cli", ch, n, cn, orb.Config{}),
		srv: orb.New("srv", sh, n, sn, orb.Config{}),
	}
}

func TestCPUReservationOverCORBA(t *testing.T) {
	r := newRig()
	mgr := NewCPUManager(r.srvHost)
	cpuRef, err := Activate(r.srv, mgr)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(r.cli)
	var id uint32
	var util float64
	r.cliHost.Spawn("caller", 50, func(th *rtos.Thread) {
		var err error
		id, err = client.ReserveCPU(th, cpuRef, 20*time.Millisecond, 100*time.Millisecond, rtos.EnforceHard)
		if err != nil {
			t.Errorf("ReserveCPU: %v", err)
			return
		}
		util, err = client.CPUUtilization(th, cpuRef)
		if err != nil {
			t.Errorf("CPUUtilization: %v", err)
		}
	})
	r.k.RunUntil(time.Second)
	if id == 0 {
		t.Fatal("no reservation id returned")
	}
	if util != 0.2 {
		t.Fatalf("utilization = %v, want 0.2", util)
	}
	if _, ok := mgr.Lookup(id); !ok {
		t.Fatalf("no server-side reserve under id %d", id)
	}
}

func TestCPUReservationRejectedOverCap(t *testing.T) {
	r := newRig()
	mgr := NewCPUManager(r.srvHost)
	cpuRef, err := Activate(r.srv, mgr)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(r.cli)
	var err1, err2 error
	r.cliHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_, err1 = client.ReserveCPU(th, cpuRef, 80*time.Millisecond, 100*time.Millisecond, rtos.EnforceHard)
		_, err2 = client.ReserveCPU(th, cpuRef, 80*time.Millisecond, 100*time.Millisecond, rtos.EnforceHard)
	})
	r.k.RunUntil(time.Second)
	if err1 != nil {
		t.Fatalf("first reservation: %v", err1)
	}
	if err2 == nil {
		t.Fatal("over-cap reservation admitted through the manager")
	}
}

func TestCPUCancelFreesCapacity(t *testing.T) {
	r := newRig()
	mgr := NewCPUManager(r.srvHost)
	cpuRef, _ := Activate(r.srv, mgr)
	client := NewClient(r.cli)
	r.cliHost.Spawn("caller", 50, func(th *rtos.Thread) {
		id, err := client.ReserveCPU(th, cpuRef, 50*time.Millisecond, 100*time.Millisecond, rtos.EnforceHard)
		if err != nil {
			t.Errorf("reserve: %v", err)
			return
		}
		if err := cancelCPU(r.cli, th, cpuRef, id); err != nil {
			t.Errorf("cancel: %v", err)
			return
		}
		util, err := client.CPUUtilization(th, cpuRef)
		if err != nil || util != 0 {
			t.Errorf("utilization after cancel = %v, %v", util, err)
		}
	})
	r.k.RunUntil(time.Second)
}

func TestCancelUnknownIDErrors(t *testing.T) {
	r := newRig()
	mgr := NewCPUManager(r.srvHost)
	cpuRef, _ := Activate(r.srv, mgr)
	var err error
	r.cliHost.Spawn("caller", 50, func(th *rtos.Thread) {
		err = cancelCPU(r.cli, th, cpuRef, 999)
	})
	r.k.RunUntil(time.Second)
	if err == nil {
		t.Fatal("cancel of unknown id succeeded")
	}
}

func TestBadOperationRejected(t *testing.T) {
	r := newRig()
	mgr := NewCPUManager(r.srvHost)
	cpuRef, _ := Activate(r.srv, mgr)
	var err error
	r.cliHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_, err = r.cli.Invoke(th, cpuRef, "frobnicate", nil)
	})
	r.k.RunUntil(time.Second)
	if err == nil {
		t.Fatal("unknown operation accepted")
	}
}

// cancelCPU invokes the manager's cancel operation with a raw body.
func cancelCPU(o *orb.ORB, t *rtos.Thread, ref *orb.ObjectRef, id uint32) error {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutULong(id)
	_, err := o.Invoke(t, ref, "cancel", e.Bytes())
	return err
}
