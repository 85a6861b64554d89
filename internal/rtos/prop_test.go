package rtos

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// Property: the CPU never delivers more compute time than elapsed
// virtual time, and with pending demand it delivers exactly the elapsed
// time (work conservation), for arbitrary thread sets.
func TestPropertyCPUConservation(t *testing.T) {
	prop := func(seeds []uint8) bool {
		if len(seeds) == 0 || len(seeds) > 12 {
			return true
		}
		k := sim.NewKernel(11)
		h := NewHost(k, "h", HostConfig{Quantum: time.Millisecond})
		tr := trace(h.cpu)
		var demand time.Duration
		for i, s := range seeds {
			d := time.Duration(int(s)+1) * time.Millisecond
			demand += d
			prio := Priority(s % 50)
			name := string(rune('a' + i))
			h.Spawn(name, prio, func(th *Thread) { th.Compute(d) })
		}
		k.Run()
		var delivered time.Duration
		for _, span := range tr.spans {
			delivered += span.duration()
		}
		// All demand met, in exactly demand of busy time, finishing at
		// exactly the total demand (single CPU, no idling).
		return delivered == demand && k.Now() == demand
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a strictly highest-priority thread is never delayed by lower
// ones: its compute time equals its demand regardless of the competing
// load mix.
func TestPropertyPriorityDominance(t *testing.T) {
	prop := func(loads []uint8, demandSel uint8) bool {
		if len(loads) > 10 {
			loads = loads[:10]
		}
		k := sim.NewKernel(3)
		h := NewHost(k, "h", HostConfig{})
		for i, s := range loads {
			d := time.Duration(int(s)+1) * time.Millisecond
			prio := Priority(s % 80) // all below 90
			name := string(rune('a' + i))
			h.Spawn(name, prio, func(th *Thread) { th.Compute(d) })
		}
		demand := time.Duration(int(demandSel)+1) * time.Millisecond
		var took time.Duration
		h.Spawn("top", 90, func(th *Thread) {
			start := th.Now()
			th.Compute(demand)
			took = time.Duration(th.Now() - start)
		})
		k.Run()
		return took == demand
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: under saturating higher-priority load, a hard reserve
// delivers at least its budget each period and at most budget + one
// period's worth of slack, for arbitrary (C, T) choices.
func TestPropertyReservationBudget(t *testing.T) {
	prop := func(cSel, tSel uint8) bool {
		period := time.Duration(int(tSel%20)+5) * time.Millisecond
		budget := period * time.Duration(int(cSel%70)+10) / 100 // 10..79%
		k := sim.NewKernel(5)
		h := NewHost(k, "h", HostConfig{})
		r, err := h.ResourceKernel().Reserve(budget, period, EnforceHard)
		if err != nil {
			return false
		}
		busyLoop(h, "hog", 90)
		tr := trace(h.cpu)
		h.Spawn("reserved", 1, func(th *Thread) {
			r.Attach(th)
			th.Compute(time.Second) // insatiable
		})
		const periods = 20
		k.RunUntil(period * periods)
		got := tr.totalFor("reserved")
		min := budget * (periods - 1) // first period may start mid-way
		max := budget * (periods + 1)
		return got >= min && got <= max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: mutex critical sections never interleave — for any number of
// contending threads, the lock is held by at most one at a time and
// every thread eventually completes its section.
func TestPropertyMutexExclusion(t *testing.T) {
	prop := func(prios []uint8) bool {
		if len(prios) == 0 || len(prios) > 8 {
			return true
		}
		k := sim.NewKernel(9)
		h := NewHost(k, "h", HostConfig{Quantum: time.Millisecond})
		m := NewMutex(h)
		inside := 0
		maxInside := 0
		completed := 0
		for i, p := range prios {
			prio := Priority(p % 90)
			name := string(rune('a' + i))
			h.Spawn(name, prio, func(th *Thread) {
				m.Lock(th)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Compute(time.Duration(int(p)+1) * 100 * time.Microsecond)
				inside--
				m.Unlock(th)
				completed++
			})
		}
		k.Run()
		return maxInside == 1 && completed == len(prios)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
