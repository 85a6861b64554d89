// Missioncontrol: the paper's avionics-style mission computer, built
// from the mechanisms the repository's programs run on.
//
//   - A periodic task set runs at its rate-monotonic CORBA priorities,
//     mapped to native priorities on the simulated endsystem, and meets
//     its deadlines.
//   - The tasks publish into one real-time event channel
//     (internal/pubsub, manual pump on the kernel clock): topics route
//     events to consumers through bounded per-consumer outboxes.
//   - An RT-CORBA thread pool with a best-effort and an expedited lane
//     runs each delivery at the priority of its consumer's band, so
//     alarm dispatch pre-empts the tasks below it while telemetry waits
//     for idle CPU.
//   - The ground station's console receives alarms and bulk telemetry as
//     oneway invocations over the ORB, every alarm ahead of every
//     telemetry frame.
//
// Run with: go run ./examples/missioncontrol
package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/pubsub"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// tasks is the mission computer's periodic load. Priorities are the
// rate-monotonic assignment (shorter period, higher priority) spread
// over the expedited band; at utilization 0.91 the set passes exact
// response-time analysis.
var tasks = []struct {
	name            string
	compute, period time.Duration
	prio            rtcorba.Priority
}{
	{"flight-control", 2 * time.Millisecond, 10 * time.Millisecond, 30000},
	{"threat-monitor", 8 * time.Millisecond, 50 * time.Millisecond, 25334},
	{"sensor-fusion", 25 * time.Millisecond, 100 * time.Millisecond, 20667},
	{"telemetry", 30 * time.Millisecond, 100 * time.Millisecond, 16000},
}

// Alarms ride the expedited band, everything else is best effort.
const (
	efFloor   = rtcorba.Priority(pubsub.EFFloor)
	prioAlarm = rtcorba.Priority(30000)
	prioBulk  = rtcorba.Priority(8000)
)

func main() { fmt.Print(run()) }

// run flies the mission and returns its transcript.
func run() string {
	var out strings.Builder
	// End-to-end latencies, publication to ground console.
	var alarms, telemetry []time.Duration
	sensorEvents, deadlineMisses := 0, 0

	sys := core.NewSystem(21)
	defer sys.Close()
	mission := sys.AddMachine("mission", rtos.HostConfig{Hz: 400e6})
	ground := sys.AddMachine("ground", rtos.HostConfig{Hz: 1e9})
	sys.Link("mission", "ground", core.LinkSpec{Bps: 2e6, Delay: 10 * time.Millisecond})
	missionORB, groundORB := mission.ORB(orb.Config{}), ground.ORB(orb.Config{})

	// 1. Ground station: one console servant takes every pushed event,
	// tells alarms from telemetry by the propagated priority, and
	// measures latency from the instant of publication.
	gPOA, err := groundORB.CreatePOA("console", orb.POAConfig{ServerPriority: 28000})
	must(err)
	consoleRef, err := gPOA.Activate("console", orb.ServantFunc(func(req *orb.ServerRequest) ([]byte, error) {
		d := cdr.NewDecoder(req.Body, cdr.LittleEndian)
		published, err := d.LongLong()
		if err != nil {
			return nil, err
		}
		payload, err := d.OctetSeq()
		if err != nil {
			return nil, err
		}
		lat := time.Duration(req.Now() - sim.Time(published))
		if req.Priority < efFloor {
			telemetry = append(telemetry, lat)
			return nil, nil
		}
		alarms = append(alarms, lat)
		fmt.Fprintf(&out, "[%8v] GROUND ALERT: %s (end-to-end %v)\n", req.Now(), payload, lat)
		return nil, nil
	}))
	must(err)

	// 2. Mission computer: the event channel and the lanes that run its
	// deliveries.
	channel := pubsub.New(pubsub.ChannelConfig{Name: "mission", Clock: sys.K})
	pool, err := rtcorba.NewThreadPool(mission.Host, missionORB.MappingManager(),
		rtcorba.LaneConfig{Priority: 0, Threads: 1},
		rtcorba.LaneConfig{Priority: efFloor, Threads: 1})
	must(err)

	// subscribe adds a consumer whose events are handled on the lane
	// serving prio, at that priority.
	subscribe := func(name, topic string, prio rtcorba.Priority, handle func(t *rtos.Thread, ev pubsub.Event)) {
		_, err := channel.Subscribe(pubsub.SubscriberConfig{
			Name: name, Topic: topic, Priority: int16(prio), Outbox: 8,
			Deliver: func(ev pubsub.Event) {
				pool.Dispatch(rtcorba.Work{Priority: prio, Job: rtcorba.JobFunc(func(t *rtos.Thread) {
					t.Compute(5 * time.Microsecond) // per-event dispatch cost
					handle(t, ev)
				})})
			},
		})
		must(err)
	}
	// publish routes an event to the matching consumers' lanes; the
	// publishing task pays nothing for delivery.
	publish := func(topic string, prio rtcorba.Priority, payload []byte) {
		must(channel.Publish(pubsub.Event{Topic: topic, Priority: int16(prio), Payload: payload}))
		channel.PumpAll()
	}
	// pushToGround forwards an event to the console, oneway, at the
	// event's own priority.
	pushToGround := func(t *rtos.Thread, ev pubsub.Event) {
		e := cdr.NewEncoder(cdr.LittleEndian)
		e.PutLongLong(int64(ev.Published))
		e.PutOctetSeq(ev.Payload)
		_, _ = missionORB.InvokeOpt(t, consoleRef, "push", e.Bytes(),
			orb.InvokeOptions{Oneway: true, Priority: rtcorba.Priority(ev.Priority)})
	}
	subscribe("recorder", "sensor/*", prioBulk, func(*rtos.Thread, pubsub.Event) { sensorEvents++ })
	subscribe("ground-alarms", "alarm/*", prioAlarm, pushToGround)
	subscribe("ground-telemetry", "telemetry/*", prioBulk, pushToGround)

	// 3. Launch the tasks. Sensor fusion publishes a track per period,
	// the threat monitor raises an alarm at t=2s and t=3.5s, and
	// telemetry downlinks the frame it compiled last period before
	// compiling the next, so its delivery has to wait for idle CPU.
	fmt.Fprintln(&out, "rate-monotonic task set:")
	for _, task := range tasks {
		task := task
		fmt.Fprintf(&out, "  %-15s %5v every %5v  CORBA priority %d\n", task.name, task.compute, task.period, task.prio)
		native, ok := missionORB.MappingManager().ToNative(task.prio, mission.Host.Priorities())
		if !ok {
			panic("priority does not map")
		}
		mission.Host.Spawn(task.name, native, func(t *rtos.Thread) {
			next := t.Now()
			for {
				start := t.Now()
				if task.name == "telemetry" {
					publish("telemetry/frame", prioBulk, make([]byte, 256))
				}
				t.Compute(task.compute)
				if time.Duration(t.Now()-start) > task.period {
					deadlineMisses++
				}
				switch task.name {
				case "sensor-fusion":
					publish("sensor/track", task.prio, nil)
				case "threat-monitor":
					if t.Now() > 2*time.Second && t.Now() < 2*time.Second+50*time.Millisecond {
						publish("alarm/threat", prioAlarm, []byte("contact bearing 040"))
					}
					if t.Now() > 3500*time.Millisecond && t.Now() < 3500*time.Millisecond+50*time.Millisecond {
						publish("alarm/threat", prioAlarm, []byte("contact bearing 220"))
					}
				}
				next += task.period
				if sleep := next - t.Now(); sleep > 0 {
					t.Sleep(sleep)
				}
			}
		})
	}

	sys.RunUntil(5 * time.Second)
	for _, s := range channel.Snapshot().Subscribers {
		fmt.Fprintf(&out, "  %-16s priority %5d: %2d delivered, %d dropped\n", s.Name, s.Priority, s.Delivered, s.Dropped)
	}
	fmt.Fprintf(&out, "slowest alarm %v, fastest of %d telemetry frames %v\n", slices.Max(alarms), len(telemetry), slices.Min(telemetry))
	fmt.Fprintf(&out, "\nafter 5s of mission time: %d sensor events processed, %d alarms delivered, %d deadline misses\n",
		sensorEvents, len(alarms), deadlineMisses)
	return out.String()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
