// Package ft is a fault-tolerance subsystem in the style of FT-CORBA,
// layered on the simulated ORB: replicated object groups published as
// multi-profile (IOGR-style) references, heartbeat fault detection over
// real ORB invocations, crash fault injection for hosts, and glue that
// feeds liveness into QuO contracts and retargets A/V streams when a
// replica's host dies.
//
// The client side — walking a group reference's profiles with capped
// jittered backoff and suppressing duplicate executions via the FT
// request service context — lives in the orb package; this package
// provides the management view: creating groups, minting references,
// detecting faults, and driving recovery actions.
package ft

import (
	"fmt"

	"repro/internal/orb"
)

// Group is one replicated object: an ordered set of member references
// (profiles). The first member is the primary; the rest are backups in
// failover order.
type Group struct {
	id      uint64
	members []*orb.ObjectRef
}

// GroupManager mints object groups with unique ids (the replication
// manager's reference-minting half in FT-CORBA terms).
type GroupManager struct {
	seq uint64
}

// NewGroupManager creates an empty manager.
func NewGroupManager() *GroupManager {
	return &GroupManager{}
}

// CreateGroup forms a group over the given member references, primary
// first. Members must be plain (non-group) references.
func (m *GroupManager) CreateGroup(members ...*orb.ObjectRef) (*Group, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ft: group needs at least one member")
	}
	for _, r := range members {
		if r.Group != 0 {
			return nil, fmt.Errorf("ft: member %v is itself a group reference", r.Addr)
		}
	}
	m.seq++
	g := &Group{id: m.seq, members: append([]*orb.ObjectRef(nil), members...)}
	return g, nil
}

// Ref mints the group's interoperable reference: the primary's profile
// in front, the backups as ordered alternate profiles, and the group id
// stamped so the client ORB engages failover and duplicate suppression.
func (g *Group) Ref() *orb.ObjectRef {
	p := g.members[0]
	ref := &orb.ObjectRef{
		Addr:           p.Addr,
		Key:            p.Key,
		Model:          p.Model,
		ServerPriority: p.ServerPriority,
		Group:          g.id,
	}
	for _, m := range g.members[1:] {
		ref.Alternates = append(ref.Alternates, orb.Profile{Addr: m.Addr, Key: m.Key})
	}
	return ref
}
