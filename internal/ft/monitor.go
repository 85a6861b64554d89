package ft

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
	"repro/internal/quo"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
)

// The detector's tuning, which every program runs: one missed
// heartbeat declares a member dead, so a crash is declared within one
// period plus one ping timeout (half a period); pings go out at the
// monitor thread's own priority, which like the detector servant's
// dispatch priority sits above application traffic.
const (
	pingPriority  = rtcorba.Priority(-1)
	defaultPeriod = 100 * time.Millisecond
)

// memberState is the monitor's view of one watched detector.
type memberState struct {
	name  string
	ref   *orb.ObjectRef
	alive bool
}

// Monitor is a heartbeat fault monitor: it pings each watched host's
// detector servant over real ORB invocations (so detection exercises
// the same network and endsystem path as application traffic) and
// publishes liveness transitions to callbacks and QuO system
// conditions.
//
// The liveness map is mutex-guarded: although the simulation kernel
// serialises virtual-time execution, liveness is also read from test
// harnesses and external samplers (see the -race tests).
type Monitor struct {
	orb    *orb.ORB
	period time.Duration

	mu      sync.Mutex
	members []*memberState
	index   map[string]*memberState

	cbs []func(name string, alive bool)
	seq uint32
}

// NewMonitor creates a monitor issuing pings from o every period
// (100ms if period is not positive).
func NewMonitor(o *orb.ORB, period time.Duration) *Monitor {
	if period <= 0 {
		period = defaultPeriod
	}
	return &Monitor{orb: o, period: period, index: make(map[string]*memberState)}
}

// Watch adds a detector to the ping schedule. Members start presumed
// alive; the first missed heartbeat flips them. Watching
// the same name twice panics: it is always a scenario bug.
func (m *Monitor) Watch(name string, ref *orb.ObjectRef) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.index[name]; dup {
		panic(fmt.Sprintf("ft: monitor already watches %q", name))
	}
	st := &memberState{name: name, ref: ref, alive: true}
	m.members = append(m.members, st)
	m.index[name] = st
}

// OnChange registers a callback fired on every liveness transition.
// Callbacks run on the monitor thread, outside the liveness lock.
func (m *Monitor) OnChange(fn func(name string, alive bool)) {
	m.cbs = append(m.cbs, fn)
}

// Alive reports the monitor's current belief about name. Unknown names
// read as dead.
func (m *Monitor) Alive(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.index[name]
	return ok && st.alive
}

// LivenessCond returns a QuO system condition reading 1 while name is
// believed alive and 0 once it is suspected — the hook that lets a
// contract region like "degraded: running on backup" react to faults.
func (m *Monitor) LivenessCond(name string) *quo.FuncCond {
	return quo.NewFuncCond("alive:"+name, func() float64 {
		if m.Alive(name) {
			return 1
		}
		return 0
	})
}

// FractionAliveCond returns a condition with the fraction of watched
// members currently believed alive.
func (m *Monitor) FractionAliveCond() *quo.FuncCond {
	return quo.NewFuncCond("alive-fraction", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if len(m.members) == 0 {
			return 1
		}
		n := 0
		for _, st := range m.members {
			if st.alive {
				n++
			}
		}
		return float64(n) / float64(len(m.members))
	})
}

// Start spawns the monitor thread at the given native priority and
// begins the ping loop.
func (m *Monitor) Start(prio rtos.Priority) {
	m.orb.Host().Spawn("ft-monitor", prio, m.loop)
}

// loop pings every watched detector once per period, in registration
// order (deterministic), and applies the miss-counting state machine.
func (m *Monitor) loop(t *rtos.Thread) {
	next := t.Now()
	for {
		m.mu.Lock()
		targets := append([]*memberState(nil), m.members...)
		m.mu.Unlock()
		for _, st := range targets {
			m.seq++
			_, err := m.orb.InvokeOpt(t, st.ref, PingOp, pingBody(m.seq, cdr.LittleEndian), orb.InvokeOptions{
				Timeout:  m.period / 2,
				Priority: pingPriority,
			})
			m.record(st.name, err == nil)
		}
		next += m.period
		if sleep := next - t.Now(); sleep > 0 {
			t.Sleep(sleep)
		} else {
			// A round overran the period (many timeouts back to back);
			// re-anchor rather than pinging in a tight loop.
			next = t.Now()
		}
	}
}

// record folds one ping outcome into the member's state, firing
// transition callbacks when belief flips.
func (m *Monitor) record(name string, ok bool) {
	m.mu.Lock()
	st := m.index[name]
	if st == nil {
		m.mu.Unlock()
		return
	}
	flipped := st.alive != ok
	st.alive = ok
	m.mu.Unlock()
	if flipped {
		for _, cb := range m.cbs {
			cb(name, ok)
		}
	}
}
