// Package quo implements the Quality Objects (QuO) adaptive QoS layer:
// contracts encode an application's operating regions and the actions to
// take when the region changes; system condition objects measure and
// control the resources the contracts depend on; and delegates weave
// adaptive behaviour into the data path (here, MPEG frame filtering).
//
// Contracts are evaluated periodically in virtual time. Region predicates
// read the current values of the contract's system conditions; the first
// matching region (in registration order) becomes current, and
// transition callbacks fire so the application and lower middleware
// layers (RT-CORBA priorities, DSCPs, reservations) can adapt.
package quo

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// SysCond is a system condition object: a named, observable value
// reflecting some part of the system state (measured frame rate, network
// load, reservation health).
type SysCond interface {
	Name() string
	Value() float64
}

// MeasuredCond is a SysCond set by probes in the application or
// middleware.
type MeasuredCond struct {
	name string
	val  float64
}

// NewMeasuredCond creates a measured condition with an initial value.
func NewMeasuredCond(name string, initial float64) *MeasuredCond {
	return &MeasuredCond{name: name, val: initial}
}

// Name implements SysCond.
func (c *MeasuredCond) Name() string { return c.name }

// Value implements SysCond.
func (c *MeasuredCond) Value() float64 { return c.val }

// Set records a new observation.
func (c *MeasuredCond) Set(v float64) { c.val = v }

// EWMACond smooths observations with an exponentially weighted moving
// average, the usual guard against contract thrashing on noisy signals.
type EWMACond struct {
	name  string
	alpha float64
	val   float64
	init  bool
}

// NewEWMACond creates a smoothed condition with weight alpha in (0, 1];
// higher alpha tracks faster.
func NewEWMACond(name string, alpha float64) *EWMACond {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("quo: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMACond{name: name, alpha: alpha}
}

// Name implements SysCond.
func (c *EWMACond) Name() string { return c.name }

// Value implements SysCond.
func (c *EWMACond) Value() float64 { return c.val }

// Observe folds a new sample into the average.
func (c *EWMACond) Observe(v float64) {
	if !c.init {
		c.val = v
		c.init = true
		return
	}
	c.val = c.alpha*v + (1-c.alpha)*c.val
}

// FuncCond computes its value on demand, wrapping middleware state
// (queue depths, link utilisation) behind the SysCond facade.
type FuncCond struct {
	name string
	fn   func() float64
}

// NewFuncCond creates a computed condition.
func NewFuncCond(name string, fn func() float64) *FuncCond {
	return &FuncCond{name: name, fn: fn}
}

// Name implements SysCond.
func (c *FuncCond) Name() string { return c.name }

// Value implements SysCond.
func (c *FuncCond) Value() float64 { return c.fn() }

// Values is a snapshot of condition values keyed by condition name,
// passed to region predicates and transition callbacks.
type Values map[string]float64

// Region is one operating region of a contract.
type Region struct {
	// Name identifies the region.
	Name string
	// When reports whether the region applies. Regions are tested in
	// registration order; the first match wins, so later regions can
	// assume earlier predicates failed. A nil When always matches,
	// making a trailing region the default.
	When func(v Values) bool
}

// TransitionFunc observes a region change.
type TransitionFunc func(from, to string, v Values)

// Contract is a QuO contract: conditions, ordered regions, and
// transition callbacks.
type Contract struct {
	name    string
	conds   []SysCond
	regions []Region
	current string
	cbs     []TransitionFunc
	every   time.Duration
	stopped bool

	// Stats
	evals       int64
	transitions int64

	// Observability (see tracing.go)
	span *trace.Span
	reg  *telemetry.Registry
}

// NewContract creates a contract evaluated every interval once started.
func NewContract(name string, every time.Duration) *Contract {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	return &Contract{name: name, every: every}
}

// Name returns the contract name.
func (c *Contract) Name() string { return c.name }

// AddCondition registers a system condition.
func (c *Contract) AddCondition(sc SysCond) *Contract {
	c.conds = append(c.conds, sc)
	return c
}

// AddRegion appends an operating region. Order matters: first match wins.
func (c *Contract) AddRegion(r Region) *Contract {
	c.regions = append(c.regions, r)
	return c
}

// OnTransition registers a callback fired on region changes (and on the
// first evaluation, with from == "").
func (c *Contract) OnTransition(fn TransitionFunc) *Contract {
	c.cbs = append(c.cbs, fn)
	return c
}

// OnEnter registers a callback fired whenever the contract enters the
// named region — sugar over OnTransition for adaptation hooks keyed to
// a single region (escalate on "degraded", relax on "normal").
func (c *Contract) OnEnter(region string, fn func(v Values)) *Contract {
	return c.OnTransition(func(from, to string, v Values) {
		if to == region {
			fn(v)
		}
	})
}

// Region returns the current region name ("" before first evaluation).
func (c *Contract) Region() string { return c.current }

// Transitions returns how many region changes have occurred.
func (c *Contract) Transitions() int64 { return c.transitions }

// Snapshot returns the current condition values.
func (c *Contract) Snapshot() Values {
	v := make(Values, len(c.conds))
	for _, sc := range c.conds {
		v[sc.Name()] = sc.Value()
	}
	return v
}

// Eval evaluates the contract once, firing transition callbacks if the
// region changed. It returns the current region.
func (c *Contract) Eval() string {
	c.evals++
	v := c.Snapshot()
	next := c.current
	for _, r := range c.regions {
		if r.When == nil || r.When(v) {
			next = r.Name
			break
		}
	}
	if next != c.current {
		from := c.current
		c.current = next
		c.transitions++
		for _, cb := range c.cbs {
			cb(from, next, v)
		}
		c.observe(v, from, next, true)
	} else {
		c.observe(v, c.current, c.current, false)
	}
	return c.current
}

// Start begins periodic evaluation on kernel k. The first evaluation
// happens immediately.
func (c *Contract) Start(k *sim.Kernel) {
	c.stopped = false
	c.Eval()
	var tick func()
	tick = func() {
		if c.stopped {
			return
		}
		c.Eval()
		k.After(c.every, tick)
	}
	k.After(c.every, tick)
}

// Stop halts periodic evaluation after the current tick.
func (c *Contract) Stop() { c.stopped = true }

// Qosket packages a contract with its conditions and delegate wiring into
// a reusable unit of QoS behaviour, per the paper's Qosket mechanism.
type Qosket struct {
	Name     string
	Contract *Contract
	Conds    map[string]SysCond
}

// NewQosket bundles a contract and its conditions.
func NewQosket(name string, c *Contract, conds ...SysCond) *Qosket {
	q := &Qosket{Name: name, Contract: c, Conds: make(map[string]SysCond, len(conds))}
	for _, sc := range conds {
		q.Conds[sc.Name()] = sc
		c.AddCondition(sc)
	}
	return q
}
