// Package rtcorba implements the Real-time CORBA 1.0 resource-control
// features the paper layers over the ORB: the global CORBA priority
// scheme (0..32767) with pluggable mappings onto each host's native
// priority range, the priority-mapping manager that lets applications
// install custom mappings, priority model policies (client-propagated and
// server-declared), thread pools with priority lanes, and protocol
// properties extended — as the paper describes for TAO — with a mapping
// from CORBA priorities to DiffServ codepoints.
package rtcorba

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/rtos"
)

// Priority is a CORBA priority: a platform-independent urgency value in
// 0..32767 that RT-CORBA maps onto native OS priorities at every host an
// activity spans.
type Priority int16

// CORBA priority bounds.
const (
	MinPriority Priority = 0
	MaxPriority Priority = 32767
)

// Valid reports whether p lies in the CORBA priority range.
func (p Priority) Valid() bool { return p >= MinPriority && p <= MaxPriority }

// PriorityMapping converts between CORBA and native priorities for a
// host's native range. Implementations must be monotone: a higher CORBA
// priority never maps to a lower native priority.
type PriorityMapping interface {
	// ToNative maps a CORBA priority into the native range.
	ToNative(p Priority, r rtos.PriorityRange) (rtos.Priority, bool)
	// ToCORBA maps a native priority back to a CORBA priority.
	ToCORBA(n rtos.Priority, r rtos.PriorityRange) (Priority, bool)
}

// LinearMapping is the default mapping: CORBA 0..32767 scales linearly
// onto the native range.
type LinearMapping struct{}

var _ PriorityMapping = LinearMapping{}

// ToNative implements PriorityMapping.
func (LinearMapping) ToNative(p Priority, r rtos.PriorityRange) (rtos.Priority, bool) {
	if !p.Valid() {
		return 0, false
	}
	span := int64(r.Span() - 1)
	native := int64(r.Min) + (int64(p)*span+int64(MaxPriority)/2)/int64(MaxPriority)
	return rtos.Priority(native), true
}

// ToCORBA implements PriorityMapping.
func (LinearMapping) ToCORBA(n rtos.Priority, r rtos.PriorityRange) (Priority, bool) {
	if !r.Contains(n) {
		return 0, false
	}
	span := int64(r.Span() - 1)
	if span == 0 {
		return 0, true
	}
	c := (int64(n-r.Min)*int64(MaxPriority) + span/2) / span
	return Priority(c), true
}

// StepMapping maps CORBA priority ranges to fixed native priorities —
// the style of custom mapping installed when only a few native levels
// are meaningful (e.g. QNX's 32).
type StepMapping struct {
	// Steps must be sorted ascending by From; a priority p uses the last
	// step with From <= p.
	Steps []Step
}

// Step is one rung of a StepMapping.
type Step struct {
	From   Priority
	Native rtos.Priority
}

var _ PriorityMapping = StepMapping{}

// ToNative implements PriorityMapping.
func (m StepMapping) ToNative(p Priority, r rtos.PriorityRange) (rtos.Priority, bool) {
	if !p.Valid() || len(m.Steps) == 0 {
		return 0, false
	}
	out := m.Steps[0].Native
	found := false
	for _, s := range m.Steps {
		if p >= s.From {
			out = s.Native
			found = true
		}
	}
	if !found || !r.Contains(out) {
		return 0, false
	}
	return out, true
}

// ToCORBA implements PriorityMapping.
func (m StepMapping) ToCORBA(n rtos.Priority, r rtos.PriorityRange) (Priority, bool) {
	if !r.Contains(n) {
		return 0, false
	}
	// Return the highest step whose native priority does not exceed n.
	best := Priority(-1)
	for _, s := range m.Steps {
		if s.Native <= n && s.From > best {
			best = s.From
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// MappingManager is TAO's priority-mapping manager: it holds the mapping
// in force and supports installing a custom one at run time.
type MappingManager struct {
	mapping PriorityMapping
}

// NewMappingManager returns a manager using the default linear mapping.
func NewMappingManager() *MappingManager {
	return &MappingManager{mapping: LinearMapping{}}
}

// Install replaces the mapping. A nil mapping restores the default.
func (m *MappingManager) Install(pm PriorityMapping) {
	if pm == nil {
		pm = LinearMapping{}
	}
	m.mapping = pm
}

// ToNative maps via the installed mapping.
func (m *MappingManager) ToNative(p Priority, r rtos.PriorityRange) (rtos.Priority, bool) {
	return m.mapping.ToNative(p, r)
}

// ToCORBA maps via the installed mapping.
func (m *MappingManager) ToCORBA(n rtos.Priority, r rtos.PriorityRange) (Priority, bool) {
	return m.mapping.ToCORBA(n, r)
}

// PriorityModel selects how the priority of a servant dispatch is chosen,
// per the RT-CORBA PriorityModelPolicy.
type PriorityModel int

const (
	// ClientPropagated runs the dispatch at the CORBA priority carried
	// in the request's service context.
	ClientPropagated PriorityModel = iota + 1
	// ServerDeclared runs every dispatch at the priority declared by
	// the server when it created the object reference.
	ServerDeclared
)

func (m PriorityModel) String() string {
	switch m {
	case ClientPropagated:
		return "CLIENT_PROPAGATED"
	case ServerDeclared:
		return "SERVER_DECLARED"
	default:
		return fmt.Sprintf("PriorityModel(%d)", int(m))
	}
}

// NetworkPriorityMapping maps CORBA priorities to DiffServ codepoints —
// the paper's extension of TAO's protocol properties so that GIOP
// traffic priority propagates into the network.
type NetworkPriorityMapping interface {
	ToDSCP(p Priority) netsim.DSCP
}

// DSCPBand is one rung of a BandedDSCPMapping.
type DSCPBand struct {
	From Priority
	DSCP netsim.DSCP
}

// BandedDSCPMapping maps priority bands to codepoints: a priority uses
// the last band whose From it reaches.
type BandedDSCPMapping struct {
	Bands []DSCPBand
}

var _ NetworkPriorityMapping = BandedDSCPMapping{}

// ToDSCP implements NetworkPriorityMapping.
func (m BandedDSCPMapping) ToDSCP(p Priority) netsim.DSCP {
	out := netsim.DSCPBestEffort
	for _, b := range m.Bands {
		if p >= b.From {
			out = b.DSCP
		}
	}
	return out
}

// BestEffortMapping maps every priority to the default codepoint (no
// network QoS management).
type BestEffortMapping struct{}

var _ NetworkPriorityMapping = BestEffortMapping{}

// ToDSCP implements NetworkPriorityMapping.
func (BestEffortMapping) ToDSCP(Priority) netsim.DSCP { return netsim.DSCPBestEffort }
