// Package naming implements a CORBA Naming Service subset: a directory
// of name → object-reference bindings served by a real CORBA servant, so
// distributed applications can rendezvous without sharing references out
// of band (the "Name Services" box in the paper's Figure 1).
//
// The wire protocol is ordinary GIOP: names travel as CDR strings and
// references in their stringified (sior:) form, so a resolve performed
// by a remote client exercises the full invocation path.
package naming

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
	"repro/internal/rtos"
)

// Well-known identity of the naming service.
const (
	// POAName is the POA the service is activated under.
	POAName = "naming"
	// ServiceID is the object id of the root context.
	ServiceID = "root"
	// Port is the conventional ORB port for a dedicated name server.
	Port = 2809
)

// Errors surfaced by the client stub.
var (
	// ErrNotFound means the name is unbound.
	ErrNotFound = errors.New("naming: name not found")
	// ErrAlreadyBound means Bind hit an existing binding (use Rebind).
	ErrAlreadyBound = errors.New("naming: name already bound")
)

// Service is the naming-context servant.
type Service struct {
	bindings map[string]*orb.ObjectRef
}

// NewService returns an empty naming context.
func NewService() *Service {
	return &Service{bindings: make(map[string]*orb.ObjectRef)}
}

// Activate registers the service with o under the conventional POA/id
// and returns its reference.
func Activate(o *orb.ORB) (*Service, *orb.ObjectRef, error) {
	s := NewService()
	poa, err := o.CreatePOA(POAName, orb.POAConfig{ServerPriority: 20000})
	if err != nil {
		return nil, nil, err
	}
	ref, err := poa.Activate(ServiceID, s)
	if err != nil {
		return nil, nil, err
	}
	return s, ref, nil
}

// Bind adds a binding locally (server-side API).
func (s *Service) Bind(name string, ref *orb.ObjectRef) error {
	if _, dup := s.bindings[name]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyBound, name)
	}
	s.bindings[name] = ref
	return nil
}

// Rebind adds or replaces a binding locally.
func (s *Service) Rebind(name string, ref *orb.ObjectRef) {
	s.bindings[name] = ref
}

// Resolve looks a name up locally.
func (s *Service) Resolve(name string) (*orb.ObjectRef, error) {
	ref, ok := s.bindings[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return ref, nil
}

// Unbind removes a binding locally.
func (s *Service) Unbind(name string) error {
	if _, ok := s.bindings[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.bindings, name)
	return nil
}

// List returns the bound names in sorted order.
func (s *Service) List() []string {
	out := make([]string, 0, len(s.bindings))
	for name := range s.bindings {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dispatch implements orb.Servant. Operations:
//
//	bind(name: string, ref: string)            raises AlreadyBound
//	rebind(name: string, ref: string)
//	resolve(name: string) -> ref: string       raises NotFound
//	unbind(name: string)                       raises NotFound
//	list() -> names: sequence<string>
func (s *Service) Dispatch(req *orb.ServerRequest) ([]byte, error) {
	const order = cdr.LittleEndian
	d := cdr.NewDecoder(req.Body, order)
	switch req.Op {
	case "bind", "rebind":
		name, err := d.String()
		if err != nil {
			return nil, badParam()
		}
		refStr, err := d.String()
		if err != nil {
			return nil, badParam()
		}
		ref, err := orb.ParseRef(refStr)
		if err != nil {
			return nil, badParam()
		}
		if req.Op == "rebind" {
			s.Rebind(name, ref)
			return nil, nil
		}
		if err := s.Bind(name, ref); err != nil {
			return nil, &orb.SystemException{ID: "IDL:omg.org/CosNaming/AlreadyBound:1.0"}
		}
		return nil, nil
	case "resolve":
		name, err := d.String()
		if err != nil {
			return nil, badParam()
		}
		ref, err := s.Resolve(name)
		if err != nil {
			return nil, &orb.SystemException{ID: "IDL:omg.org/CosNaming/NotFound:1.0"}
		}
		e := cdr.NewEncoder(order)
		e.PutString(ref.String())
		return e.Bytes(), nil
	case "unbind":
		name, err := d.String()
		if err != nil {
			return nil, badParam()
		}
		if err := s.Unbind(name); err != nil {
			return nil, &orb.SystemException{ID: "IDL:omg.org/CosNaming/NotFound:1.0"}
		}
		return nil, nil
	case "list":
		names := s.List()
		e := cdr.NewEncoder(order)
		e.PutULong(uint32(len(names)))
		for _, n := range names {
			e.PutString(n)
		}
		return e.Bytes(), nil
	default:
		return nil, &orb.SystemException{ID: giop.ExcBadOperation}
	}
}

func badParam() error {
	return &orb.SystemException{ID: giop.ExcBadParam}
}

// Client is a typed stub for a remote naming context.
type Client struct {
	orb *orb.ORB
	ref *orb.ObjectRef
}

// NewClient wraps the naming context at ref.
func NewClient(o *orb.ORB, ref *orb.ObjectRef) *Client {
	return &Client{orb: o, ref: ref}
}

// Bind binds name to ref remotely.
func (c *Client) Bind(t *rtos.Thread, name string, ref *orb.ObjectRef) error {
	return c.bindOp(t, "bind", name, ref)
}

// Rebind binds or replaces name remotely.
func (c *Client) Rebind(t *rtos.Thread, name string, ref *orb.ObjectRef) error {
	return c.bindOp(t, "rebind", name, ref)
}

func (c *Client) bindOp(t *rtos.Thread, op, name string, ref *orb.ObjectRef) error {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutString(name)
	e.PutString(ref.String())
	_, err := c.orb.Invoke(t, c.ref, op, e.Bytes())
	if err != nil && isException(err, "AlreadyBound") {
		return fmt.Errorf("%w: %q", ErrAlreadyBound, name)
	}
	return err
}

// Resolve looks name up remotely.
func (c *Client) Resolve(t *rtos.Thread, name string) (*orb.ObjectRef, error) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutString(name)
	body, err := c.orb.Invoke(t, c.ref, "resolve", e.Bytes())
	if err != nil {
		if isException(err, "NotFound") {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, err
	}
	d := cdr.NewDecoder(body, cdr.LittleEndian)
	refStr, err := d.String()
	if err != nil {
		return nil, fmt.Errorf("naming: decoding resolve reply: %w", err)
	}
	return orb.ParseRef(refStr)
}

// Unbind removes a binding remotely.
func (c *Client) Unbind(t *rtos.Thread, name string) error {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutString(name)
	_, err := c.orb.Invoke(t, c.ref, "unbind", e.Bytes())
	if err != nil && isException(err, "NotFound") {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return err
}

// List returns all bound names remotely.
func (c *Client) List(t *rtos.Thread) ([]string, error) {
	body, err := c.orb.Invoke(t, c.ref, "list", nil)
	if err != nil {
		return nil, err
	}
	d := cdr.NewDecoder(body, cdr.LittleEndian)
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		s, err := d.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func isException(err error, fragment string) bool {
	var se *orb.SystemException
	return errors.As(err, &se) && strings.Contains(se.ID, fragment)
}
