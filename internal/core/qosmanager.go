package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/rtcorba"
	"repro/internal/sim"
)

// Activity is one end-to-end application activity (a stream or an
// invocation path) whose resources the QoSManager coordinates.
type Activity struct {
	Name string
	// Priority is the activity's global CORBA priority.
	Priority rtcorba.Priority
}

// QoSManager coordinates priority- and reservation-based mechanisms
// end to end across a System.
type QoSManager struct {
	sys *System
}

// NewQoSManager creates a manager for sys.
func NewQoSManager(sys *System) *QoSManager { return &QoSManager{sys: sys} }

// reserve performs RSVP signalling for one request's flow at rateBps.
func (q *QoSManager) reserve(p *sim.Proc, req ReservationRequest, rateBps float64) error {
	_, err := q.sys.Net.ReserveFlow(p, netsim.ReservationSpec{
		Flow:    req.Flow,
		Src:     req.Src.Node,
		Dst:     req.Dst.Node,
		RateBps: rateBps,
	})
	if err != nil {
		return fmt.Errorf("core: bandwidth reserve %s->%s: %w", req.Src.Name(), req.Dst.Name(), err)
	}
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
			err := q.reserve(p, req, rate)
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
