package wire

import (
	"fmt"
	"time"

	"repro/internal/events"
	"repro/internal/trace/telemetry"
)

// BenchOptions shape the two wall-clock wire benchmarks, RunBench and
// RunObsBench.
type BenchOptions struct {
	// Duration of the measured load — of each phase, for RunObsBench
	// (default 2s; qosbench -duration).
	Duration time.Duration
}

// The benchmarks' load: a real TCP server with an EF lane and a BE lane,
// and an open-loop mixed load sized so the BE lane saturates while the EF
// lane stays lightly loaded — the regime where banded connections plus
// priority lanes must keep the EF tail flat.
const (
	// benchService is the servant's simulated per-request work, slept on
	// the lane worker: with benchBEWorkers = 1 the BE capacity is 1 000
	// req/s, so benchBEHz oversubscribes it ~1.2x.
	benchService   = time.Millisecond
	benchBEHz      = 1200
	benchBEWorkers = 1
	benchEFWorkers = 2
	// benchEFHz is RunBench's expedited rate, obsEFHz the obs bench's.
	benchEFHz = 200
	// benchQueueLimit bounds each lane's queue.
	benchQueueLimit = 256
	// benchPayload is the request body size in bytes.
	benchPayload = 64
	// BE calls must outlive the full queueing delay (benchQueueLimit *
	// benchService behind one worker) or every saturated call dies to its
	// own timeout instead of measuring the queue.
	benchBETimeout = 4*benchQueueLimit*benchService + time.Second
)

// EFPriority is the expedited CORBA priority the benchmark and the
// qosserve/qoscall pair use for the high band (BE rides at 0).
const EFPriority int16 = 16000

// BenchResult is the benchmark outcome: one report per class plus the
// server-side shed counters that explain the BE error budget.
type BenchResult struct {
	Addr     string
	Duration time.Duration
	EF, BE   ClassReport
	Refused  float64 // BE admission refusals (TRANSIENT minor 2)
	Shed     float64 // BE deadline sheds at dequeue (TIMEOUT)
}

// Render prints the benchmark tables.
func (r *BenchResult) Render() string {
	out := RenderReports([]ClassReport{r.EF, r.BE})
	out += fmt.Sprintf("  server: refused=%g deadline_shed=%g addr=%s wall=%v\n",
		r.Refused, r.Shed, r.Addr, r.Duration.Round(time.Millisecond))
	return out
}

// RunBench stands up a real TCP server and drives the mixed EF/BE load
// against it over localhost, returning wall-clock per-class reports.
// The paper-shaped claim it measures: with private banded connections
// and per-priority lanes, saturating the best-effort class must not
// move the expedited tail (EF p99 << BE p99).
func RunBench(o BenchOptions) (*BenchResult, error) {
	return benchPhase(o.duration(), benchEFHz, nil)
}

func (o BenchOptions) duration() time.Duration {
	if o.Duration <= 0 {
		return 2 * time.Second
	}
	return o.Duration
}

// benchPhase runs one load phase against a fresh server and client: bare
// when plane is nil (that is RunBench), otherwise attached to the obs
// bench's resident observability plane.
func benchPhase(d time.Duration, efHz int, plane *obsPlane) (*BenchResult, error) {
	reg := telemetry.NewRegistry()
	var bus *events.Bus
	if plane != nil {
		reg, bus = plane.reg, plane.bus
	}

	srv, err := NewServer(ServerConfig{
		Lanes: []LaneConfig{
			{Priority: 0, Workers: benchBEWorkers, QueueLimit: benchQueueLimit},
			{Priority: EFPriority, Workers: benchEFWorkers, QueueLimit: benchQueueLimit},
		},
		Registry: reg,
		Name:     "qosbench.server",
		Bus:      bus,
	})
	if err != nil {
		return nil, err
	}
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		time.Sleep(benchService)
		return req.Body, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(5 * time.Second)

	cli, err := NewClient(ClientConfig{
		Addr:     addr.String(),
		Bands:    []int16{0, EFPriority},
		Registry: reg,
		Name:     "qosbench.client",
		Bus:      bus,
	})
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	var inv Invoker = cli
	if plane != nil {
		inv = sloInvoker{inner: cli, st: plane.st}
		plane.resume(srv, cli)
	}
	start := time.Now()
	reports := RunLoad(inv, d, []LoadClass{
		{Name: "EF", Priority: EFPriority, Hz: efHz, Payload: benchPayload, Timeout: 500 * time.Millisecond},
		{Name: "BE", Priority: 0, Hz: benchBEHz, Payload: benchPayload, Timeout: benchBETimeout},
	})
	if plane != nil {
		plane.pause()
	}
	be := srv.Snapshot().Lanes[0]
	return &BenchResult{
		Addr:     addr.String(),
		Duration: time.Since(start),
		EF:       reports[0],
		BE:       reports[1],
		Refused:  float64(be.Refused),
		Shed:     float64(be.Shed),
	}, nil
}
