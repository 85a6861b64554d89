// Package resmgr implements the middleware-level resource-management
// agents the paper describes: a CORBA-based CPU reservation manager (the
// local agent that sets up reservations on a host and translates
// middleware reservation specifications into the resource kernel's
// parameters, as in the Utah/TimeSys collaboration) and a bandwidth
// broker that initiates RSVP reservations on behalf of applications.
//
// Both are real CORBA servants: clients reach them through ORB
// invocations with CDR-marshalled bodies, so reservation setup itself
// exercises the middleware path and consumes host/network resources.
package resmgr

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/netsim"
	"repro/internal/orb"
	"repro/internal/rtos"
)

// Well-known object identities.
const (
	// POAName is the POA the managers are activated under.
	POAName = "resmgr"
	// CPUManagerID is the CPU manager's object id.
	CPUManagerID = "cpu"
	// BandwidthBrokerID is the bandwidth broker's object id.
	BandwidthBrokerID = "bw"
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

// BandwidthBroker initiates RSVP reservations for callers. The broker
// runs where the flow's sender is; the flow id and endpoints arrive in
// the request.
type BandwidthBroker struct {
	net      *netsim.Network
	nextID   uint32
	reserves map[uint32]*netsim.Reservation
}

// NewBandwidthBroker creates a broker over net.
func NewBandwidthBroker(net *netsim.Network) *BandwidthBroker {
	return &BandwidthBroker{net: net, reserves: make(map[uint32]*netsim.Reservation)}
}

// Reserve performs the RSVP signalling (blocking the caller's thread).
func (b *BandwidthBroker) Reserve(t *rtos.Thread, spec netsim.ReservationSpec) (uint32, *netsim.Reservation, error) {
	resv, err := b.net.ReserveFlow(t.Proc(), spec)
	if err != nil {
		return 0, nil, err
	}
	b.nextID++
	b.reserves[b.nextID] = resv
	return b.nextID, resv, nil
}

// Cancel tears down the reservation for id.
func (b *BandwidthBroker) Cancel(id uint32) error {
	r, ok := b.reserves[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownReservation, id)
	}
	delete(b.reserves, id)
	r.Release()
	return nil
}

// Dispatch implements orb.Servant. Operations:
//
//	reserve(flow: ulonglong, src: long, dst: long, rate_bps: double,
//	        burst: ulong) -> id: ulong
//	cancel(id: ulong)
func (b *BandwidthBroker) Dispatch(req *orb.ServerRequest) ([]byte, error) {
	const order = cdr.LittleEndian
	d := cdr.NewDecoder(req.Body, order)
	switch req.Op {
	case "reserve":
		flow, err := d.ULongLong()
		if err != nil {
			return nil, badParam(err)
		}
		src, err := d.Long()
		if err != nil {
			return nil, badParam(err)
		}
		dst, err := d.Long()
		if err != nil {
			return nil, badParam(err)
		}
		rate, err := d.Double()
		if err != nil {
			return nil, badParam(err)
		}
		burst, err := d.ULong()
		if err != nil {
			return nil, badParam(err)
		}
		id, _, err := b.Reserve(req.Thread, netsim.ReservationSpec{
			Flow:       netsim.FlowID(flow),
			Src:        b.net.Node(netsim.NodeID(src)),
			Dst:        b.net.Node(netsim.NodeID(dst)),
			RateBps:    rate,
			BurstBytes: int(burst),
		})
		if err != nil {
			return nil, &orb.SystemException{ID: giop.ExcNoResources, Minor: 3}
		}
		e := cdr.NewEncoder(order)
		e.PutULong(id)
		return e.Bytes(), nil
	case "cancel":
		id, err := d.ULong()
		if err != nil {
			return nil, badParam(err)
		}
		if err := b.Cancel(id); err != nil {
			return nil, &orb.SystemException{ID: giop.ExcBadParam, Minor: 4}
		}
		return nil, nil
	default:
		return nil, &orb.SystemException{ID: giop.ExcBadOperation}
	}
}

func badParam(err error) error {
	_ = err
	return &orb.SystemException{ID: giop.ExcBadParam, Minor: 1}
}

// Activate registers both managers under the resmgr POA of o and returns
// their references.
func Activate(o *orb.ORB, cpu *CPUManager, bw *BandwidthBroker) (cpuRef, bwRef *orb.ObjectRef, err error) {
	poa, err := o.CreatePOA(POAName, orb.POAConfig{ServerPriority: 32767})
	if err != nil {
		return nil, nil, err
	}
	if cpu != nil {
		cpuRef, err = poa.Activate(CPUManagerID, cpu)
		if err != nil {
			return nil, nil, err
		}
	}
	if bw != nil {
		bwRef, err = poa.Activate(BandwidthBrokerID, bw)
		if err != nil {
			return nil, nil, err
		}
	}
	return cpuRef, bwRef, nil
}

// Client is a typed stub for invoking the managers remotely.
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

// CancelCPU cancels a CPU reservation by id.
func (c *Client) CancelCPU(t *rtos.Thread, ref *orb.ObjectRef, id uint32) error {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutULong(id)
	_, err := c.orb.Invoke(t, ref, "cancel", e.Bytes())
	return err
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

// ReserveBandwidth asks the broker at ref for an RSVP reservation.
func (c *Client) ReserveBandwidth(t *rtos.Thread, ref *orb.ObjectRef, flow netsim.FlowID, src, dst netsim.NodeID, rateBps float64, burst int) (uint32, error) {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutULongLong(uint64(flow))
	e.PutLong(int32(src))
	e.PutLong(int32(dst))
	e.PutDouble(rateBps)
	e.PutULong(uint32(burst))
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

// CancelBandwidth tears down a bandwidth reservation by id.
func (c *Client) CancelBandwidth(t *rtos.Thread, ref *orb.ObjectRef, id uint32) error {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutULong(id)
	_, err := c.orb.Invoke(t, ref, "cancel", e.Bytes())
	return err
}
