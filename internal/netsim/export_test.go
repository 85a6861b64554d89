package netsim

import "repro/internal/trace"

// Seams for the external tests in package netsim_test, which drive the
// network with the transports (an import cycle for package netsim's own
// tests).

// FreePackets returns n's packet free list.
func FreePackets(n *Network) []*Packet { return n.free }

// HopSpan returns the hop span p carries.
func HopSpan(p *Packet) *trace.Span { return p.hopSpan }

// WrapHandlers replaces every handler bound on nd with wrap(port, h).
func WrapHandlers(nd *Node, wrap func(port uint16, h Handler) Handler) {
	for port, h := range nd.ports {
		nd.ports[port] = wrap(port, h)
	}
}
