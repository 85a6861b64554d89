package ft

import (
	"repro/internal/netsim"
	"repro/internal/rtos"
)

// Crash fault injection. A crashed host is silent in every direction:
// its CPU stops dispatching (threads freeze mid-Compute) and its
// network interface drops all traffic, so it neither answers heartbeats
// nor acknowledges transport segments — exactly the failure the
// heartbeat detector and client-side failover are built to mask.

// CrashHost crash-stops a host: CPU halted, network interface down.
func CrashHost(h *rtos.Host, node *netsim.Node) {
	h.Halt()
	node.SetDown(true)
}

// RecoverHost revives a crashed host. Frozen compute demands resume
// where they stopped; traffic flows again.
func RecoverHost(h *rtos.Host, node *netsim.Node) {
	node.SetDown(false)
	h.Recover()
}
