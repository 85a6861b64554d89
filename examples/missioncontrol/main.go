// Missioncontrol: the paper's avionics-style mission computer, built
// from the repository's DRE substrates working together.
//
//   - The run-time scheduling service (internal/sched) admission-tests a
//     periodic task set (RMS) and assigns CORBA priorities; infeasible
//     load is shed by dropping non-critical tasks.
//   - The tasks run at the mapped native priorities on the simulated
//     endsystem and meet their deadlines.
//   - Sensor tasks publish typed events into a real-time event channel
//     (internal/events); a threat monitor publishes high-priority alarms.
//   - The ground station's alarm console is found through the CORBA
//     Naming Service (internal/naming) and receives alarms remotely over
//     the ORB, ahead of bulk telemetry.
//
// Run with: go run ./examples/missioncontrol
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/naming"
	"repro/internal/orb"
	"repro/internal/rtos"
	"repro/internal/sched"
)

const (
	evtSensor events.Type = 1
	evtAlarm  events.Type = 2
)

func main() {
	sys := core.NewSystem(21)
	mission := sys.AddMachine("mission", rtos.HostConfig{Hz: 400e6})
	ground := sys.AddMachine("ground", rtos.HostConfig{Hz: 1e9})
	sys.Link("mission", "ground", core.LinkSpec{Bps: 2e6, Delay: 10 * time.Millisecond})

	missionORB := mission.ORB(orb.Config{})
	groundORB := ground.ORB(orb.Config{})

	// 1. Ground station: alarm console servant + naming service.
	var alarmLatencies []time.Duration
	gPOA, err := groundORB.CreatePOA("console", orb.POAConfig{ServerPriority: 28000})
	must(err)
	alarmRef, err := gPOA.Activate("alarms", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		ev, err := events.UnmarshalEvent(req.Body)
		if err != nil {
			return nil, err
		}
		lat := time.Duration(req.Now() - ev.Published)
		alarmLatencies = append(alarmLatencies, lat)
		fmt.Printf("[%8v] GROUND ALERT: %s (end-to-end %v)\n", req.Now(), ev.Data, lat)
		return nil, nil
	}))
	must(err)
	nameSvc, nameRef, err := naming.Activate(groundORB)
	must(err)
	must(nameSvc.Bind("ground/alarm-console", alarmRef))

	// 2. Mission computer: schedule the periodic task set with RMS.
	tasks := []sched.Task{
		{Name: "flight-control", Compute: 2 * time.Millisecond, Period: 10 * time.Millisecond, Critical: true},
		{Name: "threat-monitor", Compute: 8 * time.Millisecond, Period: 50 * time.Millisecond, Critical: true},
		{Name: "sensor-fusion", Compute: 25 * time.Millisecond, Period: 100 * time.Millisecond},
		{Name: "telemetry", Compute: 30 * time.Millisecond, Period: 100 * time.Millisecond},
		{Name: "diagnostics", Compute: 45 * time.Millisecond, Period: 100 * time.Millisecond},
	}
	schedule, dropped, err := sched.DegradeToFit(sched.RateMonotonic, tasks)
	must(err)
	fmt.Printf("RMS schedule: utilization %.2f (%s); shed load: %v\n",
		schedule.Utilization, schedule.Evidence, dropped)
	for _, a := range schedule.Assignments {
		fmt.Printf("  rank %d  %-15s CORBA priority %d\n", a.Rank, a.Task.Name, a.Priority)
	}

	// 3. The event channel, with the ground console subscribed to alarms
	// (resolved by name) and a local recorder for sensor events.
	channel, err := events.NewChannel(mission.Host, missionORB.MappingManager())
	must(err)
	sensorCount := 0
	channel.Subscribe([]events.Type{evtSensor}, 8000, func(t *rtos.Thread, ev events.Event) {
		sensorCount++
	})
	mission.Host.Spawn("bootstrap", 50, func(t *rtos.Thread) {
		nc := naming.NewClient(missionORB, nameRef)
		consoleRef, err := nc.Resolve(t, "ground/alarm-console")
		must(err)
		channel.SubscribeRemote([]events.Type{evtAlarm}, 28000, missionORB, consoleRef)
		fmt.Println("mission computer resolved ground/alarm-console via naming service")
	})

	// 4. Launch the scheduled tasks. Sensor fusion publishes sensor
	// events; the threat monitor raises an alarm at t=2s and t=3.5s.
	deadlineMisses := 0
	for _, a := range schedule.Assignments {
		a := a
		native, ok := missionORB.MappingManager().ToNative(a.Priority, mission.Host.Priorities())
		if !ok {
			panic("priority does not map")
		}
		mission.Host.Spawn(a.Task.Name, native, func(t *rtos.Thread) {
			next := t.Now()
			for i := 0; ; i++ {
				start := t.Now()
				t.Compute(a.Task.Compute)
				if time.Duration(t.Now()-start) > a.Task.Period {
					deadlineMisses++
				}
				switch a.Task.Name {
				case "sensor-fusion":
					channel.Push(events.Event{Type: evtSensor, Priority: a.Priority})
				case "threat-monitor":
					if t.Now() > 2*time.Second && t.Now() < 2*time.Second+50*time.Millisecond {
						channel.Push(events.Event{Type: evtAlarm, Priority: 30000, Data: []byte("contact bearing 040")})
					}
					if t.Now() > 3500*time.Millisecond && t.Now() < 3500*time.Millisecond+50*time.Millisecond {
						channel.Push(events.Event{Type: evtAlarm, Priority: 30000, Data: []byte("contact bearing 220")})
					}
				}
				next += a.Task.Period
				if sleep := next - t.Now(); sleep > 0 {
					t.Sleep(sleep)
				}
			}
		})
	}

	sys.RunUntil(5 * time.Second)
	fmt.Printf("\nafter 5s of mission time: %d sensor events processed, %d alarms delivered, %d deadline misses\n",
		sensorCount, len(alarmLatencies), deadlineMisses)
	if deadlineMisses > 0 {
		panic("RMS-admitted tasks missed deadlines")
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
