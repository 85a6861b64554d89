// ATR: the paper's automatic-target-recognition scenario (Table 2).
//
// A client streams 400x250 PPM images to a CORBA image-processing
// server (850 MHz, TimeSys-style resource kernel) that runs Kirsch,
// Prewitt and Sobel edge detection on each image. A bursty competing
// load shares the server's CPU. The client then uses the CORBA CPU
// reservation manager to reserve processor capacity for the service and
// streams a second batch — showing processing times snap back to
// near-unloaded values.
//
// The server charges each image the detectors' calibrated cycle costs
// (imgproc.Algorithm.Cycles) on the simulated CPU.
//
// Run with: go run ./examples/atr
package main

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/imgproc"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/resmgr"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
)

const imagesPerBatch = 15

// atrServant charges each submitted image the three detectors' cycle
// costs, using an attached reserve when one has been granted.
type atrServant struct {
	reserve *rtos.Reserve
	series  map[imgproc.Algorithm]*metrics.Series
}

func (s *atrServant) Dispatch(req *orb.ServerRequest) ([]byte, error) {
	if s.reserve != nil && req.Thread.Reserve() != s.reserve {
		s.reserve.Attach(req.Thread)
	}
	d := cdr.NewDecoder(req.Body, cdr.LittleEndian)
	w, err := d.ULong()
	if err != nil {
		return nil, err
	}
	h, err := d.ULong()
	if err != nil {
		return nil, err
	}
	for _, algo := range imgproc.Algorithms() {
		start := req.Now()
		req.Thread.ComputeCycles(algo.Cycles(int(w), int(h)))
		s.series[algo].AddDuration(req.Now(), time.Duration(req.Now()-start))
	}
	return nil, nil
}

func main() {
	sys := core.NewSystem(11)
	defer sys.Close()
	client := sys.AddMachine("client", rtos.HostConfig{Hz: 1e9, Quantum: 10 * time.Millisecond})
	server := sys.AddMachine("server", rtos.HostConfig{
		Hz:             850e6,
		Quantum:        10 * time.Millisecond,
		ReservationCap: 0.98,
	})
	sys.Link("client", "server", core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond})

	srvORB := server.ORB(orb.Config{})
	cliORB := client.ORB(orb.Config{})

	// The processing servant and the CPU reservation manager both live
	// on the server.
	servant := &atrServant{series: map[imgproc.Algorithm]*metrics.Series{}}
	for _, a := range imgproc.Algorithms() {
		servant.series[a] = metrics.NewSeries(a.String())
	}
	poa, err := srvORB.CreatePOA("atr", orb.POAConfig{
		Model:          rtcorba.ServerDeclared,
		ServerPriority: 16000,
	})
	if err != nil {
		panic(err)
	}
	procRef, err := poa.Activate("processor", servant)
	if err != nil {
		panic(err)
	}
	cpuMgr := server.CPUManager()
	cpuRef, err := resmgr.Activate(srvORB, cpuMgr)
	if err != nil {
		panic(err)
	}

	// Competing bursty load at the processing priority.
	native, _ := srvORB.MappingManager().ToNative(16000, server.Host.Priorities())
	rtos.StartBurstLoad(server.Host, "cpuload", native, 30*time.Millisecond, 50*time.Millisecond)

	// A synthetic 400x250 RGB image provides the workload dimensions.
	img := imgproc.Synthetic(400, 250, 11)
	fmt.Printf("image: %dx%d PPM, %d bytes; detectors: Kirsch, Prewitt, Sobel\n\n", img.W, img.H, img.Bytes())

	// Every request carries the same body: the image's dimensions ahead
	// of its (opaque) pixels. Invoke copies it into the request frame,
	// so one buffer serves every call.
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutULong(uint32(img.W))
	e.PutULong(uint32(img.H))
	body := append(e.Bytes(), make([]byte, img.Bytes())...)
	batch := func(t *rtos.Thread) {
		for i := 0; i < imagesPerBatch; i++ {
			if _, err := cliORB.Invoke(t, procRef, "process", body); err != nil {
				panic(err)
			}
		}
	}
	report := func(title string) {
		fmt.Println(title)
		for _, a := range imgproc.Algorithms() {
			s := servant.series[a].Summarize()
			fmt.Printf("  %-8s avg %8s  stddev %8s\n", a,
				metrics.FormatDuration(s.MeanDuration()), metrics.FormatDuration(s.StdDuration()))
			servant.series[a] = metrics.NewSeries(a.String()) // reset for next batch
		}
		fmt.Println()
	}

	mgr := resmgr.NewClient(cliORB)
	client.Host.Spawn("imgsource", 50, func(t *rtos.Thread) {
		batch(t)
		report("batch 1 — competing CPU load, no reservation:")

		// Reserve 98% of the CPU over a 10 ms period via the CORBA
		// reservation manager, then run the second batch.
		id, err := mgr.ReserveCPU(t, cpuRef, 9800*time.Microsecond, 10*time.Millisecond, rtos.EnforceHard)
		if err != nil {
			panic(err)
		}
		res, _ := cpuMgr.Lookup(id)
		servant.reserve = res
		util, _ := mgr.CPUUtilization(t, cpuRef)
		fmt.Printf("reserved CPU via middleware: id=%d, server utilization now %.0f%%\n\n", id, util*100)

		batch(t)
		report("batch 2 — same load, with CPU reservation:")
	})

	sys.RunUntil(5 * time.Minute)
}
