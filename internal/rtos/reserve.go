package rtos

import (
	"errors"
	"fmt"
	"time"
)

// EnforcementPolicy selects what happens to reservation-backed threads
// when the budget for the current period is exhausted.
type EnforcementPolicy int

const (
	// EnforceHard demotes the reserve's threads to the background class
	// until replenishment, guaranteeing other reserves and ordinary
	// threads their share (the TimeSys resource-kernel default).
	EnforceHard EnforcementPolicy = iota + 1
	// EnforceSoft lets the threads keep competing at their base priority
	// after depletion: the reserve is a guarantee, not a cage.
	EnforceSoft
)

func (p EnforcementPolicy) String() string {
	switch p {
	case EnforceHard:
		return "hard"
	case EnforceSoft:
		return "soft"
	default:
		return fmt.Sprintf("EnforcementPolicy(%d)", int(p))
	}
}

// ErrAdmission is returned when a reservation request would exceed the
// resource kernel's utilisation cap.
var ErrAdmission = errors.New("rtos: reservation rejected by admission control")

// ResourceKernel is the per-host CPU reservation manager, modelled on the
// TimeSys Linux resource kernel (itself based on the CMU RK work): an
// application — in this system, a middleware agent acting for it — asks
// for C units of compute time every period T, the kernel admission-tests
// the request against the CPU's capacity, and an admitted reserve is
// guaranteed its budget each period regardless of competing load.
type ResourceKernel struct {
	host     *Host
	cap      float64 // maximum total utilisation admitted
	reserves []*Reserve
}

// Utilization returns the total CPU fraction currently promised.
func (rk *ResourceKernel) Utilization() float64 {
	u := 0.0
	for _, r := range rk.reserves {
		u += float64(r.compute) / float64(r.period)
	}
	return u
}

// Reserve requests a CPU reservation of compute time c every period t.
// It returns ErrAdmission if the kernel cannot guarantee the request.
func (rk *ResourceKernel) Reserve(c, t time.Duration, policy EnforcementPolicy) (*Reserve, error) {
	if c <= 0 || t <= 0 || c > t {
		return nil, fmt.Errorf("rtos: invalid reservation C=%v T=%v", c, t)
	}
	if policy == 0 {
		policy = EnforceHard
	}
	u := float64(c) / float64(t)
	if rk.Utilization()+u > rk.cap+1e-12 {
		return nil, fmt.Errorf("%w: requesting %.3f with %.3f of %.3f in use",
			ErrAdmission, u, rk.Utilization(), rk.cap)
	}
	r := &Reserve{
		rk:      rk,
		compute: c,
		period:  t,
		budget:  c,
		policy:  policy,
	}
	r.onPeriod = r.replenish
	rk.reserves = append(rk.reserves, r)
	r.scheduleReplenish()
	return r, nil
}

// Reserve is an admitted CPU reservation. Threads attached to it run in
// the reserved (highest) scheduling class while budget remains in the
// current period; on depletion they are demoted per the policy until the
// next replenishment.
type Reserve struct {
	rk       *ResourceKernel
	compute  time.Duration
	period   time.Duration
	budget   time.Duration
	depleted bool
	policy   EnforcementPolicy
	canceled bool
	threads  []*Thread
	onPeriod func() // replenish, bound once

	// accounting
	periods  int
	overruns int // periods in which the budget was fully consumed
}

// Attach places thread t under this reservation. A thread can be under
// at most one reserve; attaching replaces any previous one.
func (r *Reserve) Attach(t *Thread) {
	if t.host != r.rk.host {
		panic("rtos: attaching thread to a reserve on another host")
	}
	if old := t.reserve; old != nil {
		old.forget(t)
	}
	t.reserve = r
	r.threads = append(r.threads, t)
	r.rk.host.cpu.reschedule()
}

func (r *Reserve) forget(t *Thread) {
	for i, x := range r.threads {
		if x == t {
			r.threads = append(r.threads[:i], r.threads[i+1:]...)
			return
		}
	}
}

// Cancel returns the reservation's capacity to the kernel. Attached
// threads keep running at their base priority.
func (r *Reserve) Cancel() {
	if r.canceled {
		return
	}
	r.canceled = true
	rk := r.rk
	for i, x := range rk.reserves {
		if x == r {
			rk.reserves = append(rk.reserves[:i], rk.reserves[i+1:]...)
			break
		}
	}
	for _, t := range r.threads {
		t.reserve = nil
	}
	r.threads = nil
	r.depleted = true
	rk.host.cpu.reschedule()
}

func (r *Reserve) consume(d time.Duration) {
	r.budget -= d
}

func (r *Reserve) deplete() {
	r.depleted = true
	r.overruns++
}

func (r *Reserve) scheduleReplenish() { r.rk.host.k.After(r.period, r.onPeriod) }

// replenish refills the budget at the start of each period.
func (r *Reserve) replenish() {
	if r.canceled {
		return
	}
	r.periods++
	r.budget = r.compute
	r.depleted = false
	r.rk.host.cpu.reschedule()
	r.scheduleReplenish()
}

// String implements fmt.Stringer.
func (r *Reserve) String() string {
	return fmt.Sprintf("reserve(C=%v T=%v %s budget=%v)", r.compute, r.period, r.policy, r.budget)
}
