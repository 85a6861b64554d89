package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Activity is one end-to-end application activity (a stream or an
// invocation path) whose resources the QoSManager coordinates.
type Activity struct {
	Name string
	// Priority is the activity's global CORBA priority.
	Priority rtcorba.Priority

	cpuReserves []*rtos.Reserve
	netResv     *netsim.Reservation
}

// CPUReserves returns the CPU reservations established for the activity.
func (a *Activity) CPUReserves() []*rtos.Reserve { return a.cpuReserves }

// Release returns every resource held by the activity.
func (a *Activity) Release() {
	for _, r := range a.cpuReserves {
		r.Cancel()
	}
	a.cpuReserves = nil
	if a.netResv != nil {
		a.netResv.Release()
		a.netResv = nil
	}
}

// QoSManager coordinates priority- and reservation-based mechanisms
// end to end across a System.
type QoSManager struct {
	sys *System
	// Mapping converts CORBA priorities to native priorities per host.
	Mapping *rtcorba.MappingManager
	// DSCPMapping converts CORBA priorities to network codepoints.
	DSCPMapping rtcorba.NetworkPriorityMapping
}

// NewQoSManager creates a manager with the default linear priority
// mapping and a two-band DSCP mapping (priorities >= 16000 ride EF).
func NewQoSManager(sys *System) *QoSManager {
	return &QoSManager{
		sys:     sys,
		Mapping: rtcorba.NewMappingManager(),
		DSCPMapping: rtcorba.BandedDSCPMapping{Bands: []rtcorba.DSCPBand{
			{From: 0, DSCP: netsim.DSCPBestEffort},
			{From: 16000, DSCP: netsim.DSCPEF},
		}},
	}
}

// NativePriority maps an activity priority onto a machine's range.
func (q *QoSManager) NativePriority(p rtcorba.Priority, m *Machine) (rtos.Priority, error) {
	n, ok := q.Mapping.ToNative(p, m.Host.Priorities())
	if !ok {
		return 0, fmt.Errorf("core: priority %d does not map on %s", p, m.Name())
	}
	return n, nil
}

// ApplyThreadPriority sets a thread's native priority from the activity's
// CORBA priority — the OS half of a priority path.
func (q *QoSManager) ApplyThreadPriority(a *Activity, t *rtos.Thread, m *Machine) error {
	n, err := q.NativePriority(a.Priority, m)
	if err != nil {
		return err
	}
	t.SetPriority(n)
	return nil
}

// DSCPFor returns the network codepoint for the activity — the network
// half of a priority path.
func (q *QoSManager) DSCPFor(a *Activity) netsim.DSCP {
	return q.DSCPMapping.ToDSCP(a.Priority)
}

// CPUSpec asks for a CPU reservation on one machine.
type CPUSpec struct {
	Machine *Machine
	Compute time.Duration
	Period  time.Duration
	Policy  rtos.EnforcementPolicy
}

// EstablishCPUReserves sets up CPU reservations for the activity on each
// listed machine, attaching them to the activity for later release. On
// any admission failure the already-established reserves are rolled back.
func (q *QoSManager) EstablishCPUReserves(a *Activity, specs ...CPUSpec) error {
	var done []*rtos.Reserve
	for _, spec := range specs {
		r, err := spec.Machine.Host.ResourceKernel().Reserve(spec.Compute, spec.Period, spec.Policy)
		if err != nil {
			for _, d := range done {
				d.Cancel()
			}
			return fmt.Errorf("core: CPU reserve on %s: %w", spec.Machine.Name(), err)
		}
		done = append(done, r)
	}
	a.cpuReserves = append(a.cpuReserves, done...)
	return nil
}

// EstablishBandwidth performs RSVP signalling for the activity's flow.
// It must run on a simulation process.
func (q *QoSManager) EstablishBandwidth(p *sim.Proc, a *Activity, flow netsim.FlowID, src, dst *Machine, rateBps float64, burst int) error {
	resv, err := q.sys.Net.ReserveFlow(p, netsim.ReservationSpec{
		Flow:       flow,
		Src:        src.Node,
		Dst:        dst.Node,
		RateBps:    rateBps,
		BurstBytes: burst,
	})
	if err != nil {
		return fmt.Errorf("core: bandwidth reserve %s->%s: %w", src.Name(), dst.Name(), err)
	}
	a.netResv = resv
	return nil
}

// ReservationRequest is one competing request in priority-driven
// reservation allocation.
type ReservationRequest struct {
	Activity *Activity
	Flow     netsim.FlowID
	Src, Dst *Machine
	// RateBps is the preferred reservation rate.
	RateBps float64
	// MinRateBps is the smallest acceptable rate (a partial
	// reservation); zero means all-or-nothing.
	MinRateBps float64
	Burst      int
}

// AllocationResult reports the outcome for one request.
type AllocationResult struct {
	Request ReservationRequest
	// GrantedBps is the reserved rate (0 if denied).
	GrantedBps float64
	Err        error
}

// ErrDenied marks requests that priority-driven allocation rejected for
// lack of remaining capacity.
var ErrDenied = errors.New("core: reservation denied by priority-driven allocation")

// PriorityDrivenReservations implements the paper's proposed combination
// of the two paradigms: the priority paradigm drives who gets
// reservations and to what degree. Requests are served in descending
// activity priority; each gets its preferred rate if the network admits
// it, else the request degrades toward MinRateBps before being denied.
// It must run on a simulation process.
func (q *QoSManager) PriorityDrivenReservations(p *sim.Proc, reqs []ReservationRequest) []AllocationResult {
	ordered := make([]ReservationRequest, len(reqs))
	copy(ordered, reqs)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Activity.Priority > ordered[j].Activity.Priority
	})
	results := make([]AllocationResult, 0, len(ordered))
	for _, req := range ordered {
		res := AllocationResult{Request: req}
		rate := req.RateBps
		for {
			err := q.EstablishBandwidth(p, req.Activity, req.Flow, req.Src, req.Dst, rate, req.Burst)
			if err == nil {
				res.GrantedBps = rate
				break
			}
			if !errors.Is(err, netsim.ErrLinkAdmission) || req.MinRateBps <= 0 || rate <= req.MinRateBps {
				res.Err = fmt.Errorf("%w: %v", ErrDenied, err)
				break
			}
			// Degrade by half toward the floor and retry.
			rate /= 2
			if rate < req.MinRateBps {
				rate = req.MinRateBps
			}
		}
		results = append(results, res)
	}
	return results
}
