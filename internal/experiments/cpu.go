package experiments

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/imgproc"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
)

// Table 2 parameters matching the paper's setup: a client streams
// 400x250 PPM images to a CORBA image-processing server (850 MHz,
// TimeSys-style resource kernel) that runs the Kirsch, Prewitt, and
// Sobel detectors in sequence on each image.
const (
	atrImageW = 400
	atrImageH = 250
	// atrServerHz is the paper's 850 MHz Pentium III.
	atrServerHz = 850e6
	// atrImages is the default number of images per case.
	atrImages = 40
)

// Table2Case identifies one experimental column.
type Table2Case int

// The three Table 2 conditions.
const (
	CaseNoLoad Table2Case = iota + 1
	CaseLoad
	CaseLoadWithReserve
)

func (c Table2Case) String() string {
	switch c {
	case CaseNoLoad:
		return "No Load"
	case CaseLoad:
		return "Competing CPU Load"
	case CaseLoadWithReserve:
		return "CPU Load & CPU Reservation"
	default:
		return fmt.Sprintf("Table2Case(%d)", int(c))
	}
}

// Table2Row is one algorithm's summaries across the three conditions.
type Table2Row struct {
	Algo    imgproc.Algorithm
	NoLoad  metrics.Summary
	Load    metrics.Summary
	Reserve metrics.Summary
}

// Table2Result is the full table.
type Table2Result struct {
	Rows   []Table2Row
	Images int
}

// atrServant processes images: for each request it runs the three edge
// detectors in sequence on the simulated CPU (costs calibrated from the
// real convolution implementations) and records per-algorithm times.
type atrServant struct {
	reserve *rtos.Reserve // attached to the dispatch thread when set
	timings map[imgproc.Algorithm]*metrics.Series
}

func newATRServant() *atrServant {
	s := &atrServant{timings: make(map[imgproc.Algorithm]*metrics.Series)}
	for _, a := range imgproc.Algorithms() {
		s.timings[a] = metrics.NewSeries(a.String())
	}
	return s
}

func (s *atrServant) Dispatch(req *orb.ServerRequest) ([]byte, error) {
	if s.reserve != nil && req.Thread.Reserve() != s.reserve {
		s.reserve.Attach(req.Thread)
	}
	d := cdr.NewDecoder(req.Body, cdr.LittleEndian)
	w, err := d.ULong()
	if err != nil {
		return nil, &orb.SystemException{ID: giop.ExcBadParam}
	}
	h, err := d.ULong()
	if err != nil {
		return nil, &orb.SystemException{ID: giop.ExcBadParam}
	}
	for _, algo := range imgproc.Algorithms() {
		start := req.Now()
		req.Thread.ComputeCycles(algo.Cycles(int(w), int(h)))
		s.timings[algo].AddDuration(req.Now(), time.Duration(req.Now()-start))
	}
	return nil, nil
}

// runTable2Case runs one condition and returns per-algorithm series.
func runTable2Case(c Table2Case, images int, seed int64) map[imgproc.Algorithm]metrics.Summary {
	sys := core.NewSystem(seed)
	defer sys.Close()
	client := sys.AddMachine("client", rtos.HostConfig{Hz: 1e9, Quantum: 10 * time.Millisecond})
	server := sys.AddMachine("server", rtos.HostConfig{
		Hz:      atrServerHz,
		Quantum: 10 * time.Millisecond,
		// The resource kernel may promise nearly the whole CPU, as
		// TimeSys Linux permitted.
		ReservationCap: 0.98,
	})
	sys.Link("client", "server", core.LinkSpec{Bps: 100e6, Delay: 200 * time.Microsecond})

	srvORB := server.ORB(orb.Config{})
	cliORB := client.ORB(orb.Config{})

	servant := newATRServant()
	const dispatchPrio rtcorba.Priority = 16000
	poa, err := srvORB.CreatePOA("atr", orb.POAConfig{
		Model:          rtcorba.ServerDeclared,
		ServerPriority: dispatchPrio,
	})
	if err != nil {
		panic(err)
	}
	ref, err := poa.Activate("processor", servant)
	if err != nil {
		panic(err)
	}

	nativeDispatch, _ := srvORB.MappingManager().ToNative(dispatchPrio, server.Host.Priorities())
	switch c {
	case CaseLoad:
		// Variable, unsustained competing load at the same native
		// priority as the processing thread (time-shared round robin),
		// as the paper describes.
		rtos.StartBurstLoad(server.Host, "cpuload", nativeDispatch, 30*time.Millisecond, 50*time.Millisecond)
	case CaseLoadWithReserve:
		rtos.StartBurstLoad(server.Host, "cpuload", nativeDispatch, 30*time.Millisecond, 50*time.Millisecond)
		// A fine-grained reserve (98% over a 10 ms period) bounds the
		// stall from any budget/period misalignment to one small period,
		// keeping reserved processing times tight.
		r, err := server.Host.ResourceKernel().Reserve(9800*time.Microsecond, 10*time.Millisecond, rtos.EnforceHard)
		if err != nil {
			panic(err)
		}
		servant.reserve = r
	}

	// The paper's 400x250 RGB image is ~300 KB on the wire: its
	// dimensions ahead of the (opaque) pixels. Every request sends the
	// same body, which Invoke copies into the request frame.
	img := imgproc.Synthetic(atrImageW, atrImageH, seed)
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutULong(uint32(img.W))
	e.PutULong(uint32(img.H))
	body := append(e.Bytes(), make([]byte, img.Bytes())...)
	client.Host.Spawn("imgsource", 50, func(t *rtos.Thread) {
		for i := 0; i < images; i++ {
			if _, err := cliORB.Invoke(t, ref, "process", body); err != nil {
				panic(fmt.Sprintf("process: %v", err))
			}
		}
	})
	// Generous horizon: 40 images x ~300 ms + contention.
	sys.RunUntil(time.Duration(images) * 2 * time.Second)

	out := make(map[imgproc.Algorithm]metrics.Summary)
	for algo, series := range servant.timings {
		out[algo] = series.Summarize()
	}
	return out
}

// RunTable2 reproduces Table 2: edge-detection times per algorithm under
// no load, competing load, and competing load with a CPU reservation.
func RunTable2(opt Options) Table2Result { return run(table2(opt)) }

// table2 lists Table 2's three cases, one per condition, and assembles
// the table from their per-algorithm summaries.
func table2(opt Options) ([]simCase, func() Table2Result) {
	images := atrImages
	if opt.Duration != 0 {
		// Interpret Duration as a scale: one image per 6 seconds of the
		// default 240s budget.
		images = int(opt.Duration / (6 * time.Second))
		if images < 5 {
			images = 5
		}
	}
	conds := []Table2Case{CaseNoLoad, CaseLoad, CaseLoadWithReserve}
	sums := make([]map[imgproc.Algorithm]metrics.Summary, len(conds))
	cases := make([]simCase, len(conds))
	for i, c := range conds {
		cases[i] = simCase{c.String(), func() { sums[i] = runTable2Case(c, images, opt.seed()) }}
	}
	return cases, func() Table2Result {
		res := Table2Result{Images: images}
		for _, algo := range imgproc.Algorithms() {
			res.Rows = append(res.Rows, Table2Row{
				Algo:    algo,
				NoLoad:  sums[0][algo],
				Load:    sums[1][algo],
				Reserve: sums[2][algo],
			})
		}
		return res
	}
}

// Render prints Table 2 in the paper's layout.
func (r Table2Result) Render() string {
	tb := metrics.NewTable(
		fmt.Sprintf("Table 2 — CPU reservation experiments (%d images)", r.Images),
		"Algorithm",
		"NoLoad Avg", "NoLoad Std",
		"Load Avg", "Load Std",
		"Load+Resv Avg", "Load+Resv Std",
	)
	for _, row := range r.Rows {
		tb.AddRow(row.Algo.String(),
			metrics.FormatDuration(row.NoLoad.MeanDuration()),
			metrics.FormatDuration(row.NoLoad.StdDuration()),
			metrics.FormatDuration(row.Load.MeanDuration()),
			metrics.FormatDuration(row.Load.StdDuration()),
			metrics.FormatDuration(row.Reserve.MeanDuration()),
			metrics.FormatDuration(row.Reserve.StdDuration()),
		)
	}
	return tb.Render()
}
