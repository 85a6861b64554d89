package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// repConfig is one repetition of one workload: set-up, a warm-up of a
// fixed number of operations, then a measured window.
type repConfig struct {
	Workload string
	Seed     int64
	Measure  time.Duration
	// WarmScale scales the workload's warm-up operation count (1 = about
	// a quarter of a second at the seed commit; the smoke test uses less).
	WarmScale float64
	// Traced records the bench's own spans and switches the program's
	// Tracer options on; end-to-end metrics are never taken from it.
	Traced bool
	// TraceOut is where the traced pass writes its spans ("" = nowhere).
	TraceOut string
	// Start is the instant set-up time is counted from: the child
	// process's start as its parent saw it.
	Start time.Time
}

// repResult is what one repetition reports.
type repResult struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Ops       int64              `json:"ops"`
	Samples   int                `json:"lat_samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers"`
	// DriverTailUs is the percentile driverTail names for this workload.
	DriverTailUs float64 `json:"driver_tail_us,omitempty"`
	// OpMedianUs is the traced pass's op-span median, the figure the
	// path.* rows are checked against.
	OpMedianUs float64 `json:"op_median_us,omitempty"`
	Spans      int     `json:"spans,omitempty"`
}

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// rep carries the state the generator goroutines and the main
// goroutine share during one repetition.
type rep struct {
	cfg      repConfig
	phase    atomic.Int32
	warmLeft atomic.Int64
	warmDone chan struct{}
	epoch    time.Time // span timestamps are nanoseconds since it

	recs  []*recorder // added on the main goroutine only
	fails failLog
	spans *spanLog // nil unless traced
	// tick, when set, runs on the main goroutine every sampleEvery of the
	// measured window, for state that can only be sampled.
	tick func()
}

// failLog counts correctness misses and names the first few on stderr.
type failLog struct {
	mu    sync.Mutex
	n     int64
	named int
}

func (f *failLog) add(n int64, format string, args ...any) {
	f.mu.Lock()
	f.n += n
	if f.named < 8 {
		f.named++
		fmt.Fprintf(os.Stderr, "qosperf: FAIL "+format+"\n", args...)
	}
	f.mu.Unlock()
}

// sampleEvery is how often the main goroutine samples what has no
// counter (goroutines, outbox depth) while the window is open.
const sampleEvery = 500 * time.Millisecond

// offHeap returns n zeroed values of a pointer-free type in anonymous
// mapped memory, outside the Go heap. The generator keeps its samples
// and spans there: on the heap they would be live bytes the collector
// paces itself by — megabytes of ballast beside a program whose own
// live heap is under the runtime's 4 MB floor — and echo_large, which
// allocates 700 KB per op, ran 1.7x faster with them on the heap than
// without. The mapping is never released; a repetition is a process.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, max(n, 1)*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("qosperf: mmap of the sample store: %v", err)) // out of address space: nothing can run
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// recorder is one generator goroutine's private tally of the measured
// window. Latencies are kept only for the measured class (timed), in a
// store of fixed size.
type recorder struct {
	timed     bool
	attempted int64
	ops       int64
	lat       []uint32 // nanoseconds; every call here times out within 2 s
	lost      int64    // samples that found the store full
}

func (rec *recorder) book(lat time.Duration) {
	rec.ops++
	if !rec.timed {
		return
	}
	if len(rec.lat) == cap(rec.lat) {
		rec.lost++
		return
	}
	rec.lat = append(rec.lat, uint32(min(lat, math.MaxUint32)))
}

func newRep(cfg repConfig, warmOps int64) *rep {
	r := &rep{cfg: cfg, warmDone: make(chan struct{}), epoch: time.Now()}
	warm := int64(math.Ceil(float64(warmOps) * cfg.WarmScale))
	if warm < 1 {
		warm = 1
	}
	r.warmLeft.Store(warm)
	if cfg.Traced {
		r.spans = newSpanLog(cfg.Measure)
	}
	return r
}

// sampleRate sizes a timed recorder's store: samples per second of
// measured window, several times what this host reaches. Only pages
// that get written become resident.
const sampleRate = 400_000

// newRecorder adds a recorder to the repetition.
func (r *rep) newRecorder(timed bool) *recorder {
	rec := &recorder{timed: timed}
	if timed {
		rec.lat = offHeap[uint32](int(r.cfg.Measure.Seconds()*sampleRate) + 4096)[:0]
	}
	r.recs = append(r.recs, rec)
	return rec
}

func (r *rep) sinceEpoch(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// measured reports whether an operation that started in phase ph and
// has just ended lies inside the measured window: it started after the
// window opened and the window is still open.
func (r *rep) measured(ph int32) bool {
	return ph == phaseMeasure && r.phase.Load() == phaseMeasure
}

// warmed books one warm-up operation and opens the gate after the last.
func (r *rep) warmed() {
	if r.warmLeft.Add(-1) == 0 {
		close(r.warmDone)
	}
}

// step runs one closed-loop operation and books it: the caller issues
// its next op only after this one returned. op reports success.
func (r *rep) step(rec *recorder, seq uint64, op func(seq uint64) bool) {
	ph := r.phase.Load()
	t0 := time.Now()
	ok := op(seq)
	t1 := time.Now()
	rec.attempted++
	if ph == phaseWarm {
		r.warmed()
	}
	if !ok {
		r.fails.add(1, "%s: op %#x failed", r.cfg.Workload, seq)
		return
	}
	if r.measured(ph) {
		rec.book(t1.Sub(t0))
		if rec.timed && r.spans != nil {
			r.spans.add(span{Trace: seq, ID: spanOp, Kind: kindOp,
				Start: r.sinceEpoch(t0), End: r.sinceEpoch(t1)})
		}
	}
}

// loop is a closed-loop caller: ops back to back until the rep stops.
// id keeps the callers' sequence stamps apart.
func (r *rep) loop(wg *sync.WaitGroup, id int, timed bool, op func(seq uint64) bool) {
	rec := r.newRecorder(timed)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := uint64(1); r.phase.Load() != phaseStop; n++ {
			r.step(rec, uint64(id)<<48|n, op)
		}
	}()
}

// window is what the main goroutine measures around the measured phase.
type window struct {
	setup      time.Duration
	elapsed    time.Duration
	cpu        time.Duration // process user+sys time over the window
	mallocs    uint64
	bytes      uint64
	gcCycles   uint32
	gcPause    time.Duration
	goroutines int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure waits for the warm-up to finish, then holds the measured
// window open for cfg.Measure. Generators keep running throughout; only
// ops that start and end inside the window are booked.
func (r *rep) measure() window {
	<-r.warmDone
	return r.measureWhile(func(sample func()) {
		end := time.Now().Add(r.cfg.Measure)
		for left := r.cfg.Measure; left > 0; left = time.Until(end) {
			time.Sleep(min(left, sampleEvery))
			sample()
		}
	})
}

// measureWhile brackets body with the window's counters; body calls
// sample from time to time. The first timed op can start once the phase
// flips, so set-up ends there.
func (r *rep) measureWhile(body func(sample func())) window {
	var m0, m1 runtime.MemStats
	w := window{goroutines: runtime.NumGoroutine()}
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	r.phase.Store(phaseMeasure)
	body(func() {
		w.goroutines = max(w.goroutines, runtime.NumGoroutine())
		if r.tick != nil {
			r.tick()
		}
	})
	r.phase.Store(phaseStop)
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	w.setup = start.Sub(r.cfg.Start)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.bytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = m1.NumGC - m0.NumGC
	w.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return w
}

// percentile is the nearest-rank quantile of sorted samples. The bench
// keeps its own few lines of statistics rather than calling
// internal/metrics: the instrument should not change when the program
// it measures is refactored (ROADMAP item 3 plans to merge that package's
// types), and later issues may not edit bench/.
func percentile[T int64 | uint32](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// result folds the recorders and the window into the end-to-end
// metrics, each over the whole measured window, and the runtime.* rows.
func (r *rep) result(w window, layers map[string]float64) repResult {
	res := repResult{Workload: r.cfg.Workload, Layers: layers}
	var lat []uint32
	for _, rec := range r.recs {
		res.Attempted += rec.attempted
		res.Ops += rec.ops
		lat = append(lat, rec.lat...)
		if rec.lost > 0 {
			r.fails.add(rec.lost, "%s: sample store full, %d latencies lost", r.cfg.Workload, rec.lost)
		}
	}
	slices.Sort(lat)
	res.Samples = len(lat)
	if res.Ops == 0 {
		r.fails.add(1, "%s: no operation completed inside the measured window", r.cfg.Workload)
	}
	res.Failed = r.fails.n
	n := float64(max(res.Ops, 1))
	res.Metrics = map[string]float64{
		"setup_s":       w.setup.Seconds(),
		"ops_per_s":     n / w.elapsed.Seconds(),
		"lat_p50_us":    percentile(lat, 0.50) / 1e3,
		"lat_p99_us":    percentile(lat, 0.99) / 1e3,
		"cpu_us_per_op": float64(w.cpu) / 1e3 / n,
		"allocs_per_op": float64(w.mallocs) / n,
		"bytes_per_op":  float64(w.bytes) / n,
	}
	if q, ok := driverTail[r.cfg.Workload]; ok {
		res.DriverTailUs = percentile(lat, q) / 1e3
	}
	layers["runtime.gc_cycles"] = float64(w.gcCycles)
	layers["runtime.gc_pause_ms"] = float64(w.gcPause) / 1e6
	layers["runtime.goroutines_peak"] = float64(w.goroutines)
	return res
}

// runRep runs one repetition in this process.
func runRep(cfg repConfig) (repResult, error) {
	if cfg.WarmScale <= 0 {
		cfg.WarmScale = 1
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Now()
	}
	var res repResult
	var err error
	switch cfg.Workload {
	case "echo_small":
		res, err = runEcho(cfg, 64, 2, 0, 15_000)
	case "echo_large":
		res, err = runEcho(cfg, 64<<10, 2, 0, 800)
	case "mixed_flood":
		res, err = runEcho(cfg, 64, 1, 32, 15_000)
	case "pubsub_fanout":
		res, err = runPubSub(cfg)
	case "sim_paper":
		res, err = runSim(cfg)
	default:
		return res, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	for _, m := range inRunLayers {
		if _, ok := res.Layers[m.Name]; !ok {
			res.Layers[m.Name] = 0
		}
	}
	return res, nil
}
