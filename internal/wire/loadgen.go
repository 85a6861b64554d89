package wire

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// LoadClass is one open-loop traffic class the generator offers: a
// fixed issue rate regardless of completions, the regime where queueing
// delay — not client backpressure — shapes the latency distribution.
type LoadClass struct {
	// Name labels the class in reports ("EF", "BE").
	Name string
	// Priority is the CORBA priority stamped on every request, which
	// selects the client band and the server lane.
	Priority int16
	// Hz is the offered rate (requests per second, > 0).
	Hz int
	// Payload is the request body size in bytes.
	Payload int
	// Timeout is the per-call RELATIVE_RT_TIMEOUT (client default if 0).
	Timeout time.Duration
	// Key is the servant's object key ("app/echo" if empty).
	Key string
	// Idempotent declares the operation safe to re-execute, letting a
	// GroupClient retry it across endpoints after ambiguous failures.
	Idempotent bool
}

// maxInFlight bounds one class's concurrently outstanding calls; a slot
// finding the bound exhausted counts its request as dropped locally
// rather than blocking the schedule.
const maxInFlight = 1024

// Invoker is the invocation surface the load generator drives: a plain
// single-endpoint Client or a fault-tolerant GroupClient.
type Invoker interface {
	Invoke(key, op string, body []byte, opts CallOptions) ([]byte, error)
}

// ClassReport is one class's outcome after a load run.
type ClassReport struct {
	Name string
	// Offered is every request the schedule issued (including local
	// drops); Completed is those that got a reply; OK those that got a
	// successful one.
	Offered, Completed, OK int64
	// Errors counts failures by class: overload, deadline, unavailable,
	// circuit_open, dropped_local, ...
	Errors map[string]int64
	// Latency summarises, over successful calls, the wall-clock
	// milliseconds from each call's scheduled slot to its reply.
	Latency metrics.Summary
	// Throughput is successful replies per wall-clock second.
	Throughput float64
	// RawMs holds the individual successful-call latencies behind
	// Latency, so callers can pool samples across runs and compute
	// percentiles over one large distribution.
	RawMs []float64 `json:"-"`
}

// RunLoad offers every class concurrently against client c for d and
// reports per-class outcomes. It returns once the offered schedules end
// and every outstanding call has resolved.
func RunLoad(c Invoker, d time.Duration, classes []LoadClass) []ClassReport {
	reports := make([]ClassReport, len(classes))
	var wg sync.WaitGroup
	for i, lc := range classes {
		wg.Add(1)
		go func(i int, lc LoadClass) {
			defer wg.Done()
			reports[i] = runClass(c, d, lc)
		}(i, lc)
	}
	wg.Wait()
	return reports
}

func runClass(c Invoker, d time.Duration, lc LoadClass) ClassReport {
	if lc.Key == "" {
		lc.Key = "app/echo"
	}
	body := make([]byte, lc.Payload)
	for i := range body {
		body[i] = byte(i)
	}

	var mu sync.Mutex
	rep := ClassReport{Name: lc.Name, Errors: make(map[string]int64)}
	var lats []float64

	// The schedule is absolute: slot k is due at start + k·interval, and
	// every slot whose instant has passed is issued, so a loop that wakes
	// late catches up instead of dropping ticks (a time.Ticker drops
	// them: at 1 200 Hz on 2 vCPUs one offered 74–79 % of its slots).
	// Each call is timed from its slot, so lateness counts as latency.
	sem := make(chan struct{}, maxInFlight)
	var calls sync.WaitGroup
	interval := time.Second / time.Duration(lc.Hz)
	start := time.Now()
	for k := time.Duration(0); k*interval < d; k++ {
		due := start.Add(k * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		rep.Offered++
		select {
		case sem <- struct{}{}:
		default:
			mu.Lock()
			rep.Errors["dropped_local"]++
			mu.Unlock()
			continue
		}
		calls.Add(1)
		go func() {
			defer func() { <-sem; calls.Done() }()
			_, err := c.Invoke(lc.Key, "echo", body, CallOptions{
				Priority:   lc.Priority,
				Timeout:    lc.Timeout,
				Idempotent: lc.Idempotent,
			})
			rtt := time.Since(due)
			mu.Lock()
			rep.Completed++
			if err != nil {
				rep.Errors[errClass(err)]++
			} else {
				rep.OK++
				lats = append(lats, float64(rtt)/float64(time.Millisecond))
			}
			mu.Unlock()
		}()
	}
	calls.Wait()

	elapsed := time.Since(start)
	rep.Latency = metrics.Summarize(lats)
	rep.RawMs = lats
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.OK) / secs
	}
	return rep
}

// Render produces the per-class results table plus an error-breakdown
// line per class with failures.
func RenderReports(reports []ClassReport) string {
	tb := metrics.NewTable("Wire load (wall clock)",
		"Class", "Offered", "OK", "p50 ms", "p95 ms", "p99 ms", "Max ms", "Req/s")
	for _, r := range reports {
		tb.AddRow(r.Name,
			fmt.Sprintf("%d", r.Offered),
			fmt.Sprintf("%d", r.OK),
			fmt.Sprintf("%.3f", r.Latency.P50),
			fmt.Sprintf("%.3f", r.Latency.P95),
			fmt.Sprintf("%.3f", r.Latency.P99),
			fmt.Sprintf("%.3f", r.Latency.Max),
			fmt.Sprintf("%.1f", r.Throughput),
		)
	}
	out := tb.Render()
	for _, r := range reports {
		if len(r.Errors) == 0 {
			continue
		}
		out += fmt.Sprintf("  %s errors:", r.Name)
		for _, k := range sortedErrKeys(r.Errors) {
			out += fmt.Sprintf(" %s=%d", k, r.Errors[k])
		}
		out += "\n"
	}
	return out
}

func sortedErrKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
