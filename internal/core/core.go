// Package core is the paper's primary contribution: flexible and
// adaptive end-to-end QoS control that integrates priority- and
// reservation-based OS and network resource-management mechanisms with
// the DOC middleware layers underneath (the TAO-style ORB with RT-CORBA,
// and the QuO adaptive layer).
//
// It provides three things:
//
//   - System: a scenario builder that assembles simulated machines
//     (rtos hosts bound to network nodes), routers, and QoS-capable
//     links, and wires ORBs, A/V streaming services, and resource
//     managers onto them.
//
//   - QoSManager: the end-to-end coordination layer. Priority paths set
//     a single CORBA priority that maps to native thread priorities on
//     every host and to DiffServ codepoints in the network (Figure 2);
//     reservation paths combine TimeSys-style CPU reserves with RSVP
//     bandwidth reservations. The manager also implements the paper's
//     proposed extension of using the priority paradigm to drive who
//     gets reservations.
//
//   - Video adaptation qoskets: packaged QuO contracts that watch
//     delivery quality and adjust MPEG frame filtering (30 -> 10 ->
//     2 fps) to what the network will support, as in the Figure 7 and
//     Table 1 experiments.
package core

import (
	"fmt"
	"time"

	"repro/internal/avstreams"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/resmgr"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// LinkProfile selects the queueing capabilities of a link.
type LinkProfile int

const (
	// ProfileBestEffort is a plain FIFO egress: no QoS management at
	// all (the paper's control runs).
	ProfileBestEffort LinkProfile = iota + 1
	// ProfileDiffServ adds an expedited band above a fair-queued best-
	// effort class (priority-based network management).
	ProfileDiffServ
	// ProfileFullQoS layers IntServ reservations over DiffServ over
	// fair queueing (both network paradigms available).
	ProfileFullQoS
)

func (p LinkProfile) String() string {
	switch p {
	case ProfileBestEffort:
		return "best-effort"
	case ProfileDiffServ:
		return "diffserv"
	case ProfileFullQoS:
		return "full-qos"
	default:
		return fmt.Sprintf("LinkProfile(%d)", int(p))
	}
}

// LinkSpec describes one duplex connection between nodes.
type LinkSpec struct {
	// Bps is the bandwidth per direction in bits per second.
	Bps float64
	// Delay is the propagation delay.
	Delay time.Duration
	// Profile selects queueing capabilities. Defaults to ProfileFullQoS.
	Profile LinkProfile
	// QueueBytes bounds each egress queue. Defaults to 64 KiB.
	QueueBytes int
}

func (ls LinkSpec) qdisc() netsim.Qdisc {
	limit := ls.QueueBytes
	if limit == 0 {
		limit = 64 * 1024
	}
	switch ls.Profile {
	case ProfileBestEffort:
		return netsim.NewFIFO(limit)
	case ProfileDiffServ:
		return netsim.NewDiffServ(limit/2, netsim.NewDRR(netsim.MTU, limit))
	default:
		return netsim.NewIntServ(netsim.NewDiffServ(limit/2, netsim.NewDRR(netsim.MTU, limit)))
	}
}

// Machine is one endsystem: a simulated host bound to a network node,
// with lazily created middleware services.
type Machine struct {
	sys  *System
	Host *rtos.Host
	Node *netsim.Node

	orb    *orb.ORB
	av     *avstreams.Service
	cpuMgr *resmgr.CPUManager
}

// Name returns the machine name.
func (m *Machine) Name() string { return m.Host.Name() }

// ORB returns the machine's ORB, creating it with cfg on first use.
// Subsequent calls ignore cfg.
func (m *Machine) ORB(cfg orb.Config) *orb.ORB {
	if m.orb == nil {
		m.orb = orb.New(m.Name(), m.Host, m.sys.Net, m.Node, cfg)
	}
	return m.orb
}

// AV returns the machine's A/V streaming service, creating it on first
// use.
func (m *Machine) AV() *avstreams.Service {
	if m.av == nil {
		m.av = avstreams.NewService(m.Host, m.sys.Net, m.Node)
	}
	return m.av
}

// CPUManager returns the machine's CPU reservation agent, creating it on
// first use.
func (m *Machine) CPUManager() *resmgr.CPUManager {
	if m.cpuMgr == nil {
		m.cpuMgr = resmgr.NewCPUManager(m.Host)
	}
	return m.cpuMgr
}

// System is a complete simulated DRE system under one kernel.
type System struct {
	K   *sim.Kernel
	Net *netsim.Network

	machines map[string]*Machine
	routers  map[string]*netsim.Node
}

// NewSystem creates an empty system with a deterministic seed.
func NewSystem(seed int64) *System {
	k := sim.NewKernel(seed)
	return &System{
		K:        k,
		Net:      netsim.New(k),
		machines: make(map[string]*Machine),
		routers:  make(map[string]*netsim.Node),
	}
}

// AddMachine creates an endsystem. Names must be unique across machines
// and routers.
func (s *System) AddMachine(name string, cfg rtos.HostConfig) *Machine {
	s.checkName(name)
	m := &Machine{
		sys:  s,
		Host: rtos.NewHost(s.K, name, cfg),
		Node: s.Net.AddHost(name),
	}
	s.machines[name] = m
	return m
}

// AddRouter creates a forwarding node.
func (s *System) AddRouter(name string) *netsim.Node {
	s.checkName(name)
	r := s.Net.AddRouter(name)
	s.routers[name] = r
	return r
}

func (s *System) checkName(name string) {
	if _, dup := s.machines[name]; dup {
		panic(fmt.Sprintf("core: duplicate machine %q", name))
	}
	if _, dup := s.routers[name]; dup {
		panic(fmt.Sprintf("core: duplicate router %q", name))
	}
}

// Machine returns a machine by name, or nil.
func (s *System) Machine(name string) *Machine { return s.machines[name] }

// nodeOf resolves a machine or router name to its network node.
func (s *System) nodeOf(name string) *netsim.Node {
	if m, ok := s.machines[name]; ok {
		return m.Node
	}
	if r, ok := s.routers[name]; ok {
		return r
	}
	panic(fmt.Sprintf("core: unknown node %q", name))
}

// Link connects two named nodes with a symmetric duplex link.
func (s *System) Link(a, b string, spec LinkSpec) {
	if spec.Bps <= 0 {
		panic("core: link needs positive bandwidth")
	}
	s.Net.Connect(s.nodeOf(a), s.nodeOf(b),
		netsim.LinkConfig{Bps: spec.Bps, Delay: spec.Delay, Queue: spec.qdisc()},
		netsim.LinkConfig{Bps: spec.Bps, Delay: spec.Delay, Queue: spec.qdisc()},
	)
}

// Run advances the system to absolute virtual time t.
func (s *System) RunUntil(t sim.Time) { s.K.RunUntil(t) }

// Close ends the scenario (see sim.Kernel.Close): whoever called
// NewSystem defers it, or the system's server loops stay parked forever.
func (s *System) Close() { s.K.Close() }
