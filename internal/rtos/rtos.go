// Package rtos simulates real-time endsystems: hosts with preemptive
// fixed-priority CPU scheduling, round-robin time slicing within a
// priority level, priority-inheritance mutexes, and TimeSys-style CPU
// reservations (a resource kernel granting C units of compute time every
// period T, with admission control and budget enforcement).
//
// The Go runtime deliberately hides native thread priorities, so this
// package substitutes a discrete-event model of the endsystems used in
// the paper (QNX, LynxOS, Solaris, TimeSys Linux). Application code runs
// as simulated threads that consume virtual CPU time via Compute; the
// scheduler arbitrates contention exactly as a fixed-priority preemptive
// kernel would, which is the property the paper's experiments depend on.
package rtos

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Priority is a native OS priority. Higher values are more urgent on
// every simulated host; per-OS ranges (QNX 0..31, LynxOS 0..255, ...)
// are captured by PriorityRange and mapped by the rtcorba package.
type Priority int

// PriorityRange is the span of native priorities an OS offers.
type PriorityRange struct {
	Min, Max Priority
}

// Contains reports whether p falls inside the range.
func (r PriorityRange) Contains(p Priority) bool { return p >= r.Min && p <= r.Max }

// Span returns the number of distinct priorities in the range.
func (r PriorityRange) Span() int { return int(r.Max-r.Min) + 1 }

// Common native priority ranges for the operating systems named in the
// paper's Figure 2.
var (
	RangeQNX     = PriorityRange{Min: 0, Max: 31}
	RangeLynxOS  = PriorityRange{Min: 0, Max: 255}
	RangeSolaris = PriorityRange{Min: 0, Max: 159}
	RangeLinux   = PriorityRange{Min: 0, Max: 99}
)

// HostConfig parameterises a simulated endsystem.
type HostConfig struct {
	// Hz is the CPU clock rate in cycles per second, used by cost models
	// (such as the image-processing calibration) to convert cycle counts
	// into compute time. Defaults to 1 GHz.
	Hz float64
	// Priorities is the native priority range. Defaults to RangeLinux.
	Priorities PriorityRange
	// Quantum is the round-robin time slice shared by threads of equal
	// effective priority, as in SCHED_RR or a time-sharing class.
	// Zero selects run-to-completion FIFO within a priority (SCHED_FIFO).
	Quantum time.Duration
	// ReservationCap bounds the total CPU utilisation the resource
	// kernel may promise to reservations (TimeSys reserved a fraction of
	// the CPU for system activity). Defaults to 0.9.
	ReservationCap float64
}

// Host is a simulated endsystem: one CPU, a scheduler, and a resource
// kernel. Create hosts with NewHost and threads with Spawn.
type Host struct {
	name string
	k    *sim.Kernel
	cfg  HostConfig
	cpu  *CPU
	rk   *ResourceKernel
}

// NewHost creates a host attached to kernel k.
func NewHost(k *sim.Kernel, name string, cfg HostConfig) *Host {
	if cfg.Hz == 0 {
		cfg.Hz = 1e9
	}
	if cfg.Priorities == (PriorityRange{}) {
		cfg.Priorities = RangeLinux
	}
	if cfg.ReservationCap == 0 {
		cfg.ReservationCap = 0.9
	}
	h := &Host{name: name, k: k, cfg: cfg}
	h.cpu = newCPU(h, cfg.Quantum)
	h.rk = &ResourceKernel{host: h, cap: cfg.ReservationCap}
	return h
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Quantum returns the host's round-robin time slice (zero = FIFO within
// a priority).
func (h *Host) Quantum() time.Duration { return h.cfg.Quantum }

// Priorities returns the host's native priority range.
func (h *Host) Priorities() PriorityRange { return h.cfg.Priorities }

// ResourceKernel returns the host's reservation manager.
func (h *Host) ResourceKernel() *ResourceKernel { return h.rk }

// Halt crash-stops the host: the CPU stops dispatching, so every thread
// blocks at its next (or current) Compute and queued work freezes in
// place. Timers and network interrupts that do not consume CPU are not
// modelled as stopping — pair Halt with taking the host's network node
// down to simulate a full crash (see the ft package's CrashHost).
func (h *Host) Halt() { h.cpu.halt() }

// Recover restarts a halted host's CPU; frozen compute demands resume
// where they stopped.
func (h *Host) Recover() { h.cpu.recover() }

// Spawn starts a new thread at the given native priority running fn.
// The priority is clamped to the host's range.
func (h *Host) Spawn(name string, prio Priority, fn func(t *Thread)) *Thread {
	prio = h.clamp(prio)
	t := &Thread{host: h, name: name, base: prio}
	t.job.t = t
	t.proc = h.k.Go(h.name+"/"+name, func(p *sim.Proc) {
		fn(t)
	})
	return t
}

func (h *Host) clamp(p Priority) Priority {
	if p < h.cfg.Priorities.Min {
		return h.cfg.Priorities.Min
	}
	if p > h.cfg.Priorities.Max {
		return h.cfg.Priorities.Max
	}
	return p
}

// String implements fmt.Stringer.
func (h *Host) String() string {
	return fmt.Sprintf("host(%s, %.0f MHz, prio %d..%d)",
		h.name, h.cfg.Hz/1e6, h.cfg.Priorities.Min, h.cfg.Priorities.Max)
}
