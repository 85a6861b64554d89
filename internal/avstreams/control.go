package avstreams

import (
	"errors"
	"fmt"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtos"
)

// The A/V Streaming Service's control path: in the CORBA service,
// stream establishment is itself a CORBA interaction (the StreamCtrl /
// stream-endpoint IDL) — the sender asks the receiving side's control
// object for the data-flow endpoint, then sets up the transport and
// attaches any reservation. This file implements that control plane so
// stream binding exercises the ORB like the paper's system does.

// ControlPOA is the POA name the control servant is activated under.
const ControlPOA = "avstreams"

// ErrUnknownFlow is returned when the control object has no endpoint
// registered under the requested flow name.
var ErrUnknownFlow = errors.New("avstreams: unknown flow name")

// Control is the receiving side's stream-control servant: a directory of
// named flow endpoints.
type Control struct {
	svc       *Service
	endpoints map[string]*Receiver
}

// ActivateControl creates the service's control servant on o and returns
// its reference. Register receivers with RegisterEndpoint.
func (s *Service) ActivateControl(o *orb.ORB) (*Control, *orb.ObjectRef, error) {
	c := &Control{svc: s, endpoints: make(map[string]*Receiver)}
	poa, err := o.CreatePOA(ControlPOA, orb.POAConfig{ServerPriority: 22000})
	if err != nil {
		return nil, nil, err
	}
	ref, err := poa.Activate("streamctrl", c)
	if err != nil {
		return nil, nil, err
	}
	return c, ref, nil
}

// RegisterEndpoint exposes a receiver under a flow name.
func (c *Control) RegisterEndpoint(name string, r *Receiver) error {
	if _, dup := c.endpoints[name]; dup {
		return fmt.Errorf("avstreams: endpoint %q already registered", name)
	}
	c.endpoints[name] = r
	return nil
}

// Dispatch implements orb.Servant. Operations:
//
//	resolve_endpoint(name: string) -> node: long, port: ushort
func (c *Control) Dispatch(req *orb.ServerRequest) ([]byte, error) {
	const order = cdr.LittleEndian
	switch req.Op {
	case "resolve_endpoint":
		d := cdr.NewDecoder(req.Body, order)
		name, err := d.String()
		if err != nil {
			return nil, &orb.SystemException{ID: giop.ExcBadParam}
		}
		r, ok := c.endpoints[name]
		if !ok {
			return nil, &orb.SystemException{ID: "IDL:omg.org/AVStreams/notSupported:1.0"}
		}
		addr := r.Addr()
		e := cdr.NewEncoder(order)
		e.PutLong(int32(addr.Node))
		e.PutUShort(addr.Port)
		return e.Bytes(), nil
	default:
		return nil, &orb.SystemException{ID: giop.ExcBadOperation}
	}
}

// BindVia establishes a stream whose endpoint is discovered through the
// receiving side's control object: the full A/V-service bind sequence —
// CORBA control round trip, then data path setup, then the optional RSVP
// reservation.
func (snd *Sender) BindVia(t *rtos.Thread, o *orb.ORB, ctrl *orb.ObjectRef, flowName string, qos QoS) (*Stream, error) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutString(flowName)
	body, err := o.Invoke(t, ctrl, "resolve_endpoint", e.Bytes())
	if err != nil {
		var se *orb.SystemException
		if errors.As(err, &se) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownFlow, flowName)
		}
		return nil, fmt.Errorf("avstreams: control bind: %w", err)
	}
	d := cdr.NewDecoder(body, cdr.LittleEndian)
	node, err := d.Long()
	if err != nil {
		return nil, fmt.Errorf("avstreams: decoding endpoint: %w", err)
	}
	port, err := d.UShort()
	if err != nil {
		return nil, fmt.Errorf("avstreams: decoding endpoint: %w", err)
	}
	dst := netsim.Addr{Node: netsim.NodeID(node), Port: port}
	return snd.Bind(t.Proc(), dst, qos)
}
