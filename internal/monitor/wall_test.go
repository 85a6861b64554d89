package monitor

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/trace/telemetry"
)

// leakCheck fails the test if teardown leaves more goroutines running
// than were alive when it was called (same pattern as the wire plane's
// leak audit). Call it first so its cleanup runs last.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after teardown\n%s", before, now, buf[:n])
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWallSamplerTicksAndRestart pins the wall-clock sampler: it ticks
// on real time without a kernel, Stop is synchronous and leak-free, and
// a stopped sampler can be started again.
func TestWallSamplerTicksAndRestart(t *testing.T) {
	leakCheck(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("req")
	s := NewSampler(sim.Wall, reg, nil, 3*time.Millisecond)

	s.Start()
	c.Inc()
	waitFor(t, 2*time.Second, func() bool { return s.Ticks() >= 3 }, "3 sampler ticks")
	s.Stop()
	n := s.Ticks()
	time.Sleep(15 * time.Millisecond)
	if got := s.Ticks(); got != n {
		t.Fatalf("sampler ticked after Stop: %d -> %d", n, got)
	}

	// Restart resumes ticking.
	s.Start()
	waitFor(t, 2*time.Second, func() bool { return s.Ticks() > n }, "tick after restart")
	s.Stop()

	if sr := s.Series("req"); sr == nil || len(sr.Windows()) == 0 {
		t.Fatal("counter series missing after wall sampling")
	}
}

// TestWallSamplerConcurrency drives observations, series reads, and a
// second Stop/Start cycle concurrently with the ticker; the test exists
// to fail under -race if any sampler state is unguarded.
func TestWallSamplerConcurrency(t *testing.T) {
	leakCheck(t)
	reg := telemetry.NewRegistry()
	c := reg.Counter("req")
	h := reg.Histogram("lat_ms")
	s := NewSampler(sim.Wall, reg, nil, time.Millisecond)
	s.AddRule(&Rule{Name: "hot", Series: "lat_ms.window", Stat: StatP99, Op: Above, Threshold: 1})
	s.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Observe(5)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if sr := s.Series("lat_ms.window"); sr != nil {
					sr.LastNonEmpty()
				}
				s.Series("req")
			}
		}
	}()

	waitFor(t, 2*time.Second, func() bool { return s.Ticks() >= 5 }, "5 ticks under load")
	close(stop)
	wg.Wait()
	s.Stop()
}

// TestRuntimeCollector pins the runtime/metrics bridge: a collect pass
// populates goroutine, heap and GC instruments in the registry.
func TestRuntimeCollector(t *testing.T) {
	reg := telemetry.NewRegistry()
	rc := NewRuntimeCollector(reg)
	rc.Collect()
	// Force some allocation and a GC between passes so cumulative
	// metrics move.
	garbage := make([][]byte, 256)
	for i := range garbage {
		garbage[i] = make([]byte, 4096)
	}
	runtime.GC()
	_ = garbage
	rc.Collect()

	if v := reg.Gauge("go.goroutines").Value(); v < 1 {
		t.Fatalf("go.goroutines = %v, want >= 1", v)
	}
	if v := reg.Gauge("go.mem_total_bytes").Value(); v <= 0 {
		t.Fatalf("go.mem_total_bytes = %v, want > 0", v)
	}
	if v := reg.Counter("go.heap_alloc_bytes").Value(); v <= 0 {
		t.Fatalf("go.heap_alloc_bytes = %v, want > 0", v)
	}
	if v := reg.Counter("go.gc_cycles").Value(); v < 1 {
		t.Fatalf("go.gc_cycles = %v, want >= 1 after runtime.GC", v)
	}
}

// TestProfilerAlertTriggeredCPU pins the tentpole loop: an alert record
// transitioning to firing on the bus triggers a CPU profile capture,
// the capture lands in the ring directory, and a KindProfile record
// stamped with the path and trigger is published back.
func TestProfilerAlertTriggeredCPU(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	bus := events.NewBus(sim.Wall)
	reg := telemetry.NewRegistry()
	p, err := NewProfiler(ProfilerConfig{
		Dir:         dir,
		CPUDuration: 30 * time.Millisecond,
		Bus:         bus,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var profiles []events.Record
	bus.Subscribe(func(r events.Record) {
		mu.Lock()
		profiles = append(profiles, r)
		mu.Unlock()
	}, events.KindProfile)

	p.Start()
	bus.Publish(events.KindAlert, "rule/ef_hot",
		events.F("state", "firing"),
		events.F("stat", "p99"))
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(profiles) > 0
	}, "alert-triggered profile record")
	p.Stop()

	mu.Lock()
	rec := profiles[0]
	mu.Unlock()
	var path, trigger string
	for _, f := range rec.Fields {
		switch f.K {
		case "path":
			path = f.V
		case "trigger":
			trigger = f.V
		}
	}
	if trigger != "rule/ef_hot" {
		t.Fatalf("trigger = %q, want rule/ef_hot", trigger)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatalf("captured profile %q missing or empty: %v", path, err)
	}
	if got := reg.Counter("monitor.profiler.captures", telemetry.L("kind", "cpu")).Value(); got != 1 {
		t.Fatalf("cpu capture counter = %v, want 1", got)
	}
	// A clearing alert must not trigger a capture.
	bus.Publish(events.KindAlert, "rule/ef_hot", events.F("state", "resolved"))
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	n := len(profiles)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("profile records = %d after resolved alert, want 1", n)
	}
}

// TestProfilerAlertCooldown pins the rate limit on triggered captures:
// with a Cooldown configured, the first firing alert captures a CPU
// profile and a second firing alert inside the window is counted as
// skipped instead of capturing again — an alert storm costs one
// profile, not one per alert.
func TestProfilerAlertCooldown(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	bus := events.NewBus(sim.Wall)
	reg := telemetry.NewRegistry()
	p, err := NewProfiler(ProfilerConfig{
		Dir:         dir,
		CPUDuration: 20 * time.Millisecond,
		Cooldown:    time.Hour,
		Bus:         bus,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	captures := func() float64 {
		return reg.Counter("monitor.profiler.captures", telemetry.L("kind", "cpu")).Value()
	}
	bus.Publish(events.KindAlert, "rule/ef_hot", events.F("state", "firing"))
	waitFor(t, 5*time.Second, func() bool { return captures() == 1 }, "first triggered capture")

	bus.Publish(events.KindAlert, "rule/ef_hot", events.F("state", "firing"))
	waitFor(t, 2*time.Second, func() bool {
		return reg.Counter("monitor.profiler.skipped").Value() >= 1
	}, "second trigger counted as skipped")
	if got := captures(); got != 1 {
		t.Fatalf("cpu captures after cooled-down trigger = %v, want 1", got)
	}
}

// TestProfilerRingBound pins the on-disk ring: captures beyond MaxFiles
// evict the oldest file of that kind.
func TestProfilerRingBound(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfilerConfig{Dir: dir, MaxFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 5; i++ {
		if last, err = p.CaptureHeap("test"); err != nil {
			t.Fatal(err)
		}
	}
	files := p.Files("heap")
	if len(files) != 2 {
		t.Fatalf("ring holds %d files, want 2: %v", len(files), files)
	}
	if files[len(files)-1] != last {
		t.Fatalf("newest capture %q not last in ring %v", last, files)
	}
	if _, err := os.Stat(files[0]); err != nil {
		t.Fatalf("surviving ring file missing: %v", err)
	}
}

// TestStartHTTPObservability covers the live endpoint end to end: a
// real /metrics scrape sees registry instruments, pprof answers,
// /debug/qos serves introspection sources, /events streams bus records
// as NDJSON, and stopping the server leaks nothing — including the
// streaming handler.
func TestStartHTTPObservability(t *testing.T) {
	leakCheck(t)
	reg := telemetry.NewRegistry()
	reg.Counter("app.requests", telemetry.L("class", "EF")).Add(3)
	bus := events.NewBus(sim.Wall)
	ix := NewIntrospector()
	ix.Add("lane", func() any { return map[string]int{"depth": 7} })

	addr, stop, err := StartHTTP("127.0.0.1:0", reg, WithIntrospect(ix), WithEvents(bus))
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, `app_requests{class="EF"} 3`) {
		t.Fatalf("/metrics = %d, missing app_requests: %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", code)
	}
	code, body := get("/debug/qos")
	if code != 200 || !strings.Contains(body, `"depth": 7`) {
		t.Fatalf("/debug/qos = %d %q, want lane depth", code, body)
	}

	// Stream /events while publishing two records.
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type got struct {
		rec RecordJSON
		err error
	}
	recs := make(chan got, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var r RecordJSON
			err := json.Unmarshal(sc.Bytes(), &r)
			recs <- got{r, err}
		}
	}()
	// The subscription is registered inside the handler; give the
	// request a moment to reach it before publishing.
	time.Sleep(20 * time.Millisecond)
	bus.Publish(events.KindAlert, "rule/x", events.F("state", "firing"))
	bus.Publish(events.KindSample, "sampler", events.F("tick", "1"))

	for _, want := range []events.Kind{events.KindAlert, events.KindSample} {
		select {
		case g := <-recs:
			if g.err != nil {
				t.Fatalf("bad NDJSON: %v", g.err)
			}
			if events.Kind(g.rec.Kind) != want {
				t.Fatalf("streamed kind = %q, want %q", g.rec.Kind, want)
			}
			if g.rec.Wall == "" {
				t.Fatal("streamed record missing wall timestamp")
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for %s over /events", want)
		}
	}

	stop() // must also tear down the open /events stream
}

// TestIntrospectorSnapshot pins source registration order and the
// handler's JSON shape.
func TestIntrospectorSnapshot(t *testing.T) {
	ix := NewIntrospector()
	ix.Add("b", func() any { return 2 })
	ix.Add("a", func() any { return map[string]string{"x": "y"} })
	snap := ix.Snapshot()
	if len(snap) != 2 || snap["b"] != 2 {
		t.Fatalf("snapshot = %#v", snap)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"x":"y"`) {
		t.Fatalf("snapshot JSON = %s", b)
	}
}

// TestWallSamplerAlertsOnBus pins the wall-mode rule loop: a hot
// histogram series trips the rule after For windows and publishes a
// firing KindAlert on the bus.
func TestWallSamplerAlertsOnBus(t *testing.T) {
	leakCheck(t)
	reg := telemetry.NewRegistry()
	bus := events.NewBus(sim.Wall)
	var mu sync.Mutex
	var alerts []events.Record
	bus.Subscribe(func(r events.Record) {
		mu.Lock()
		alerts = append(alerts, r)
		mu.Unlock()
	}, events.KindAlert)

	h := reg.Histogram("rtt_ms")
	s := NewSampler(sim.Wall, reg, bus, 2*time.Millisecond)
	s.AddRule(&Rule{Name: "hot", Series: "rtt_ms.window", Stat: StatP99, Op: Above, Threshold: 10, For: 2})
	s.Start()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(50)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(alerts) > 0
	}, "firing alert")
	close(stop)
	s.Stop()

	mu.Lock()
	defer mu.Unlock()
	if alerts[0].Source != "rule/hot" {
		t.Fatalf("alert source = %q, want rule/hot", alerts[0].Source)
	}
	if alerts[0].Wall.IsZero() {
		t.Fatal("wall-bus alert record missing wall timestamp")
	}
}

// settableClock ticks like sim.Wall but reads whatever time it is set to.
type settableClock struct {
	*sim.WallClock
	mu sync.Mutex
	t  sim.Time
}

func (c *settableClock) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *settableClock) set(t sim.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// TestWallSamplerInjectedClock pins that the sampler and its bus read
// time only through their sim.Clock: records carry the reading of the
// clock they were given, not of the process clock.
func TestWallSamplerInjectedClock(t *testing.T) {
	leakCheck(t)
	reg := telemetry.NewRegistry()
	clk := &settableClock{WallClock: sim.Wall}
	bus := events.NewBus(clk)
	var mu sync.Mutex
	var recs []events.Record
	bus.Subscribe(func(r events.Record) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}, events.KindSample)

	s := NewSampler(clk, reg, bus, time.Millisecond)
	reg.Counter("c").Inc()
	s.Start()
	clk.set(42 * time.Second)
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(recs) > 0
	}, "sample record")
	s.Stop()

	mu.Lock()
	defer mu.Unlock()
	if recs[len(recs)-1].At != 42*time.Second {
		t.Fatalf("record At = %v, want the injected clock's 42s", recs[len(recs)-1].At)
	}
}
