// Package resmgr implements the middleware-level resource-management
// agent the paper describes: a CORBA-based CPU reservation manager (the
// local agent that sets up reservations on a host and translates
// middleware reservation specifications into the resource kernel's
// parameters, as in the Utah/TimeSys collaboration).
//
// It is a real CORBA servant: clients reach it through ORB invocations
// with CDR-marshalled bodies, so reservation setup itself exercises the
// middleware path and consumes host/network resources.
package resmgr

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
	"repro/internal/rtos"
)

// Well-known object identities.
const (
	// POAName is the POA the managers are activated under.
	POAName = "resmgr"
	// CPUManagerID is the CPU manager's object id.
	CPUManagerID = "cpu"
)

// ErrUnknownReservation is returned for operations on missing ids.
var ErrUnknownReservation = errors.New("resmgr: unknown reservation id")

// CPUManager is the per-host CPU reservation agent. It owns the mapping
// from middleware reservation ids to resource-kernel reserves.
type CPUManager struct {
	host     *rtos.Host
	nextID   uint32
	reserves map[uint32]*rtos.Reserve
}

// NewCPUManager creates the agent for host.
func NewCPUManager(host *rtos.Host) *CPUManager {
	return &CPUManager{host: host, reserves: make(map[uint32]*rtos.Reserve)}
}

// Reserve translates a middleware reservation spec into a resource-kernel
// reserve. Policy zero selects hard enforcement.
func (m *CPUManager) Reserve(c, t time.Duration, policy rtos.EnforcementPolicy) (uint32, *rtos.Reserve, error) {
	r, err := m.host.ResourceKernel().Reserve(c, t, policy)
	if err != nil {
		return 0, nil, err
	}
	m.nextID++
	m.reserves[m.nextID] = r
	return m.nextID, r, nil
}

// Lookup returns the reserve for id.
func (m *CPUManager) Lookup(id uint32) (*rtos.Reserve, bool) {
	r, ok := m.reserves[id]
	return r, ok
}

// Cancel releases the reserve for id.
func (m *CPUManager) Cancel(id uint32) error {
	r, ok := m.reserves[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownReservation, id)
	}
	delete(m.reserves, id)
	r.Cancel()
	return nil
}

// Dispatch implements orb.Servant. Operations:
//
//	reserve(compute_ns: longlong, period_ns: longlong, policy: ulong) -> id: ulong
//	cancel(id: ulong)
//	utilization() -> double
func (m *CPUManager) Dispatch(req *orb.ServerRequest) ([]byte, error) {
	const order = cdr.LittleEndian
	d := cdr.NewDecoder(req.Body, order)
	switch req.Op {
	case "reserve":
		c, err := d.LongLong()
		if err != nil {
			return nil, badParam(err)
		}
		t, err := d.LongLong()
		if err != nil {
			return nil, badParam(err)
		}
		pol, err := d.ULong()
		if err != nil {
			return nil, badParam(err)
		}
		id, _, err := m.Reserve(time.Duration(c), time.Duration(t), rtos.EnforcementPolicy(pol))
		if err != nil {
			return nil, &orb.SystemException{ID: giop.ExcNoResources, Minor: 1}
		}
		e := cdr.NewEncoder(order)
		e.PutULong(id)
		return e.Bytes(), nil
	case "cancel":
		id, err := d.ULong()
		if err != nil {
			return nil, badParam(err)
		}
		if err := m.Cancel(id); err != nil {
			return nil, &orb.SystemException{ID: giop.ExcBadParam, Minor: 2}
		}
		return nil, nil
	case "utilization":
		e := cdr.NewEncoder(order)
		e.PutDouble(m.host.ResourceKernel().Utilization())
		return e.Bytes(), nil
	default:
		return nil, &orb.SystemException{ID: giop.ExcBadOperation}
	}
}

func badParam(err error) error {
	_ = err
	return &orb.SystemException{ID: giop.ExcBadParam, Minor: 1}
}

// Activate registers the CPU manager under the resmgr POA of o and
// returns its reference.
func Activate(o *orb.ORB, cpu *CPUManager) (*orb.ObjectRef, error) {
	poa, err := o.CreatePOA(POAName, orb.POAConfig{ServerPriority: 32767})
	if err != nil {
		return nil, err
	}
	return poa.Activate(CPUManagerID, cpu)
}

// Client is a typed stub for invoking the manager remotely.
type Client struct {
	orb *orb.ORB
}

// NewClient wraps o.
func NewClient(o *orb.ORB) *Client { return &Client{orb: o} }

// ReserveCPU asks the CPU manager at ref for a (c, t) reserve.
func (c *Client) ReserveCPU(t *rtos.Thread, ref *orb.ObjectRef, compute, period time.Duration, policy rtos.EnforcementPolicy) (uint32, error) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutLongLong(int64(compute))
	e.PutLongLong(int64(period))
	e.PutULong(uint32(policy))
	body, err := c.orb.Invoke(t, ref, "reserve", e.Bytes())
	if err != nil {
		return 0, err
	}
	d := cdr.NewDecoder(body, cdr.LittleEndian)
	id, err := d.ULong()
	if err != nil {
		return 0, fmt.Errorf("resmgr: decoding reserve reply: %w", err)
	}
	return id, nil
}

// CPUUtilization reads the host's promised utilisation.
func (c *Client) CPUUtilization(t *rtos.Thread, ref *orb.ObjectRef) (float64, error) {
	body, err := c.orb.Invoke(t, ref, "utilization", nil)
	if err != nil {
		return 0, err
	}
	d := cdr.NewDecoder(body, cdr.LittleEndian)
	return d.Double()
}
