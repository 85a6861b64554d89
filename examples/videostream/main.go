// Videostream: the paper's UAV video pipeline (Figure 3, one path) with
// QuO adaptive frame filtering.
//
// A UAV machine streams MPEG-1 video to a distributor, which relays it
// to a control-station receiver. Sixty seconds in, heavy cross traffic
// swamps the distributor's 10 Mbps downlink for sixty seconds. A QuO
// contract watches delivered quality and thins the relayed stream to the
// rate the network supports (30 -> 10 -> 2 fps), then recovers when the
// load clears.
//
// Run with: go run ./examples/videostream
package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/avstreams"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/video"
)

const (
	runFor    = 180 * time.Second
	loadStart = 60 * time.Second
	loadStop  = 120 * time.Second
)

func main() { fmt.Print(run()) }

// run flies the pipeline and returns its transcript.
func run() string {
	var out strings.Builder
	sys := core.NewSystem(7)
	defer sys.Close()
	uav := sys.AddMachine("uav", rtos.HostConfig{Hz: 750e6})
	dist := sys.AddMachine("distributor", rtos.HostConfig{Hz: 1e9})
	station := sys.AddMachine("station", rtos.HostConfig{Hz: 1e9})
	// Roomy uplink; contended 10 Mbps downlink.
	sys.Link("uav", "distributor", core.LinkSpec{Bps: 20e6, Delay: 5 * time.Millisecond})
	sys.Link("distributor", "station", core.LinkSpec{Bps: 10e6, Delay: time.Millisecond})

	// Control-station receiver (the display).
	recv := station.AV().CreateReceiver(5000, 50, nil)

	// Distributor: frames arriving from the UAV are queued and relayed
	// onto the downlink stream, whose QuO filter adapts the rate.
	relayQ := sim.NewQueue[video.Frame]()
	relay := dist.AV().CreateReceiver(5001, 60, func(f video.Frame, sentAt, recvAt sim.Time) {
		relayQ.Put(f)
	})
	distSender := dist.AV().CreateSender(5002)
	var downlink *avstreams.Stream
	var adapt *core.VideoAdaptation
	dist.Host.Spawn("forwarder", 60, func(t *rtos.Thread) {
		var err error
		downlink, err = distSender.Bind(t.Proc(), recv.Addr(), avstreams.QoS{})
		if err != nil {
			panic(err)
		}
		adapt = sys.NewVideoAdaptation(downlink, recv)
		for {
			downlink.SendFrame(t, relayQ.Get(t.Proc()))
		}
	})

	// UAV camera: 30 fps MPEG-1 into the distributor.
	uavSender := uav.AV().CreateSender(5003)
	var uplink *avstreams.Stream
	uav.Host.Spawn("camera", 40, func(t *rtos.Thread) {
		var err error
		uplink, err = uavSender.Bind(t.Proc(), relay.Addr(), avstreams.QoS{})
		if err != nil {
			panic(err)
		}
		uplink.RunSource(t, video.NewGenerator(), runFor)
	})

	// The load pulse on the downlink.
	var cross *netsim.CrossTraffic
	sys.K.At(loadStart, func() {
		fmt.Fprintf(&out, "[%3ds] >>> 43.8 Mbps cross traffic begins\n", int(loadStart.Seconds()))
		cross = netsim.StartCrossTraffic(sys.Net, dist.Node, station.Node, 6000, 43.8e6, 20, netsim.DSCPBestEffort)
	})
	sys.K.At(loadStop, func() {
		fmt.Fprintf(&out, "[%3ds] <<< cross traffic ends\n", int(loadStop.Seconds()))
		cross.Stop()
	})

	// Progress report every ten virtual seconds.
	var lastRecv int64
	for t := 10 * time.Second; t <= runFor; t += 10 * time.Second {
		t := t
		sys.K.At(t, func() {
			got := recv.Stats.ReceivedTotal
			fps := float64(got-lastRecv) / 10
			lastRecv = got
			fmt.Fprintf(&out, "[%3ds] station receiving %5.1f fps (filter %s)\n",
				int(t.Seconds()), fps, adapt.Level())
		})
	}

	sys.RunUntil(runFor + 2*time.Second)
	fmt.Fprintf(&out, "\nuav sent %d frames; station received %d (%.1f%% end to end); filter transitions: %d\n",
		uplink.Stats.SentTotal, recv.Stats.ReceivedTotal,
		100*float64(recv.Stats.ReceivedTotal)/float64(uplink.Stats.SentTotal), adapt.Transitions)
	return out.String()
}
