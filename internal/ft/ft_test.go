package ft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// newDetectorSystem builds a monitor machine watching n detector hosts.
func newDetectorSystem(t *testing.T, n int) (*core.System, *Monitor, []*core.Machine) {
	t.Helper()
	sys := core.NewSystem(1)
	mon := sys.AddMachine("mon", rtos.HostConfig{Quantum: time.Millisecond})
	var machines []*core.Machine
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("host%d", i+1)
		m := sys.AddMachine(name, rtos.HostConfig{Quantum: time.Millisecond})
		sys.Link("mon", name, core.LinkSpec{Bps: 100e6, Delay: 100 * time.Microsecond})
		machines = append(machines, m)
	}
	monORB := mon.ORB(orb.Config{})
	monitor := NewMonitor(monORB, 100*time.Millisecond)
	for i, m := range machines {
		ref, err := RegisterDetector(m.ORB(orb.Config{}), 30000)
		if err != nil {
			t.Fatal(err)
		}
		monitor.Watch(fmt.Sprintf("host%d", i+1), ref)
	}
	return sys, monitor, machines
}

func TestMonitorDetectsCrashWithinBound(t *testing.T) {
	sys, monitor, machines := newDetectorSystem(t, 2)
	var deadAt sim.Time
	monitor.OnChange(func(name string, alive bool) {
		if name == "host1" && !alive {
			deadAt = sys.K.Now()
		}
	})
	monitor.Start(90)

	sys.K.RunFor(500 * time.Millisecond)
	if !monitor.Alive("host1") || !monitor.Alive("host2") {
		t.Fatal("a member is suspected before the crash")
	}

	crashAt := sys.K.Now()
	CrashHost(machines[0].Host, machines[0].Node)
	sys.K.RunFor(time.Second)

	if monitor.Alive("host1") {
		t.Fatal("crashed host still believed alive after 1s")
	}
	if !monitor.Alive("host2") {
		t.Fatal("healthy host wrongly suspected")
	}
	if deadAt == 0 {
		t.Fatal("no liveness transition callback fired")
	}
	// One missed beat: worst case one full period until the first
	// missed ping plus its timeout — comfortably within 2 periods.
	bound := 2 * monitor.period
	if lat := time.Duration(deadAt - crashAt); lat > bound {
		t.Fatalf("detection latency %v exceeds %v", lat, bound)
	}
}

func TestMonitorSeesRecovery(t *testing.T) {
	sys, monitor, machines := newDetectorSystem(t, 1)
	monitor.Start(90)
	sys.K.RunFor(300 * time.Millisecond)
	CrashHost(machines[0].Host, machines[0].Node)
	sys.K.RunFor(time.Second)
	if monitor.Alive("host1") {
		t.Fatal("crashed host still alive")
	}
	RecoverHost(machines[0].Host, machines[0].Node)
	// The transport's go-back-N RTO backs off to 2s while the host is
	// silent, so give the stream time to retransmit and drain.
	sys.K.RunFor(5 * time.Second)
	if !monitor.Alive("host1") {
		t.Fatal("recovered host still suspected")
	}
}

func TestLivenessCond(t *testing.T) {
	sys, monitor, machines := newDetectorSystem(t, 2)
	monitor.Start(90)
	alive1 := monitor.LivenessCond("host1")
	frac := monitor.FractionAliveCond()
	sys.K.RunFor(300 * time.Millisecond)
	if alive1.Value() != 1 || frac.Value() != 1 {
		t.Fatalf("pre-crash conds = %v/%v, want 1/1", alive1.Value(), frac.Value())
	}
	CrashHost(machines[0].Host, machines[0].Node)
	sys.K.RunFor(time.Second)
	if alive1.Value() != 0 {
		t.Fatalf("alive:host1 = %v after crash, want 0", alive1.Value())
	}
	if frac.Value() != 0.5 {
		t.Fatalf("alive-fraction = %v, want 0.5", frac.Value())
	}
}

func TestGroupRefMinting(t *testing.T) {
	gm := NewGroupManager()
	mk := func(node int, key string) *orb.ObjectRef {
		r, err := orb.ParseRef(fmt.Sprintf("sior:node=%d;port=2809;key=%s;model=client;prio=0", node, key))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	g, err := gm.CreateGroup(mk(1, "app/a"), mk(2, "app/a"), mk(3, "app/a"))
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Ref()
	if ref.Group != g.id || len(ref.Alternates) != 2 {
		t.Fatalf("minted ref %+v malformed", ref)
	}
	// The IOGR survives stringification (e.g. through the naming service).
	back, err := orb.ParseRef(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Group != g.id || len(back.Alternates) != 2 {
		t.Fatalf("round-tripped ref lost group info: %+v", back)
	}
	if _, err := gm.CreateGroup(ref); err == nil {
		t.Fatal("CreateGroup accepted a group reference as member")
	}
}

// TestLivenessMapRace hammers the monitor's liveness map from real OS
// goroutines while the state machine mutates it. Run with -race (CI
// does): any unguarded access to the map trips the detector.
func TestLivenessMapRace(t *testing.T) {
	m := &Monitor{index: make(map[string]*memberState)}
	for i := 0; i < 4; i++ {
		m.Watch(fmt.Sprintf("h%d", i), &orb.ObjectRef{Key: []byte("app/obj")})
	}
	frac := m.FractionAliveCond()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("h%d", w)
			for i := 0; i < 2000; i++ {
				m.record(name, i%3 != 0)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_ = m.Alive(fmt.Sprintf("h%d", (w+1)%4))
				_ = frac.Value()
			}
		}()
	}
	wg.Wait()
}
