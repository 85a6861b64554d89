package orb

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netsim"
	"repro/internal/rtcorba"
)

// ObjectRef is an interoperable object reference: the server address, the
// object key, and the QoS-relevant tagged components a QoS-enabled object
// adapter embeds (priority model and declared server priority), so that
// clients can honour server-side policies — as the paper describes for
// RT-CORBA object references.
//
// A fault-tolerant reference (IOGR style) additionally carries the
// object-group id and an ordered list of alternate profiles; the ORB's
// client-side failover machinery walks Addr/Key first and then the
// alternates when an invocation on a group reference fails.
type ObjectRef struct {
	Addr           netsim.Addr
	Key            []byte
	Model          rtcorba.PriorityModel
	ServerPriority rtcorba.Priority
	// Group is the object-group id for fault-tolerant references
	// (zero for a plain single-profile reference).
	Group uint64
	// Alternates are the failover targets tried, in order, after the
	// primary Addr/Key profile.
	Alternates []Profile
}

// Profile is one addressable endpoint of a (possibly replicated) object.
type Profile struct {
	Addr netsim.Addr
	Key  []byte
}

// profile returns the reference's i-th profile in failover order,
// counted round the list: the primary Addr/Key first, then the
// alternates.
func (r *ObjectRef) profile(i int) Profile {
	if i %= 1 + len(r.Alternates); i > 0 {
		return r.Alternates[i-1]
	}
	return Profile{Addr: r.Addr, Key: r.Key}
}

// ErrBadRef reports an unparseable stringified reference.
var ErrBadRef = errors.New("orb: malformed object reference")

// String produces a corbaloc-style stringified reference. Group
// references append the group id and the alternate profiles, so a
// multi-profile reference survives a String → ParseRef round trip (e.g.
// through the naming service).
func (r *ObjectRef) String() string {
	model := "client"
	if r.Model == rtcorba.ServerDeclared {
		model = "server"
	}
	s := fmt.Sprintf("sior:node=%d;port=%d;key=%s;model=%s;prio=%d",
		r.Addr.Node, r.Addr.Port, string(r.Key), model, r.ServerPriority)
	if r.Group != 0 {
		s += fmt.Sprintf(";group=%d", r.Group)
	}
	if len(r.Alternates) > 0 {
		parts := make([]string, len(r.Alternates))
		for i, p := range r.Alternates {
			parts[i] = fmt.Sprintf("%d:%d:%s", p.Addr.Node, p.Addr.Port, string(p.Key))
		}
		s += ";alt=" + strings.Join(parts, ",")
	}
	return s
}

// parseProfile parses one "node:port:key" alternate-profile entry.
func parseProfile(s string) (Profile, error) {
	var p Profile
	nodeStr, rest, ok := strings.Cut(s, ":")
	if !ok {
		return p, fmt.Errorf("%w: alt profile %q", ErrBadRef, s)
	}
	portStr, key, ok := strings.Cut(rest, ":")
	if !ok || key == "" {
		return p, fmt.Errorf("%w: alt profile %q", ErrBadRef, s)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return p, fmt.Errorf("%w: alt node %q", ErrBadRef, nodeStr)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return p, fmt.Errorf("%w: alt port %q", ErrBadRef, portStr)
	}
	p.Addr = netsim.Addr{Node: netsim.NodeID(node), Port: uint16(port)}
	p.Key = []byte(key)
	return p, nil
}

// ParseRef parses a stringified reference produced by String.
func ParseRef(s string) (*ObjectRef, error) {
	body, ok := strings.CutPrefix(s, "sior:")
	if !ok {
		return nil, fmt.Errorf("%w: missing sior: prefix", ErrBadRef)
	}
	ref := &ObjectRef{Model: rtcorba.ClientPropagated}
	for _, field := range strings.Split(body, ";") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("%w: field %q", ErrBadRef, field)
		}
		switch k {
		case "node":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("%w: node %q", ErrBadRef, v)
			}
			ref.Addr.Node = netsim.NodeID(n)
		case "port":
			n, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("%w: port %q", ErrBadRef, v)
			}
			ref.Addr.Port = uint16(n)
		case "key":
			ref.Key = []byte(v)
		case "model":
			switch v {
			case "client":
				ref.Model = rtcorba.ClientPropagated
			case "server":
				ref.Model = rtcorba.ServerDeclared
			default:
				return nil, fmt.Errorf("%w: model %q", ErrBadRef, v)
			}
		case "prio":
			n, err := strconv.Atoi(v)
			if err != nil || !rtcorba.Priority(n).Valid() {
				return nil, fmt.Errorf("%w: prio %q", ErrBadRef, v)
			}
			ref.ServerPriority = rtcorba.Priority(n)
		case "group":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: group %q", ErrBadRef, v)
			}
			ref.Group = n
		case "alt":
			for _, part := range strings.Split(v, ",") {
				p, err := parseProfile(part)
				if err != nil {
					return nil, err
				}
				ref.Alternates = append(ref.Alternates, p)
			}
		default:
			return nil, fmt.Errorf("%w: unknown field %q", ErrBadRef, k)
		}
	}
	if len(ref.Key) == 0 {
		return nil, fmt.Errorf("%w: missing key", ErrBadRef)
	}
	return ref, nil
}
