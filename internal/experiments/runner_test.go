package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runCases fills each case's slot whatever order the cases finish in,
// never runs more than GOMAXPROCS of them at once, and leaves no worker
// goroutine behind.
func TestRunCasesOrderWidthAndExit(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			idle := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(int64(procs)))
			const n = 24
			got := make([]int, n)
			var running, peak atomic.Int64
			cases := make([]simCase, n)
			for i := range cases {
				delay := time.Duration(rng.Intn(3000)) * time.Microsecond
				cases[i] = simCase{fmt.Sprint("case", i), func() {
					now := running.Add(1)
					for {
						p := peak.Load()
						if now <= p || peak.CompareAndSwap(p, now) {
							break
						}
					}
					time.Sleep(delay)
					got[i] = i * i
					running.Add(-1)
				}}
			}
			runCases(cases)
			for i, v := range got {
				if v != i*i {
					t.Fatalf("slot %d holds %d, want %d", i, v, i*i)
				}
			}
			if p := peak.Load(); p > int64(procs) {
				t.Errorf("%d cases ran at once, GOMAXPROCS is %d", p, procs)
			} else if procs > 1 && p < 2 {
				t.Errorf("cases never overlapped at GOMAXPROCS %d", procs)
			}
			checkNoLeakedGoroutines(t, idle, "after runCases returned")
		})
	}
}

// A case that panics re-panics on the caller's goroutine, naming the
// case, after the other cases have finished.
func TestRunCasesPanicNamesCase(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	idle := runtime.NumGoroutine()
	var finished atomic.Int64
	ok := func() { time.Sleep(time.Millisecond); finished.Add(1) }
	cases := []simCase{
		{"first", ok},
		{"broken", func() { panic("scenario fault") }},
		{"third", ok},
		{"fourth", ok},
	}
	func() {
		defer func() {
			r := recover()
			msg, _ := r.(string)
			if !strings.Contains(msg, `case "broken"`) || !strings.Contains(msg, "scenario fault") {
				t.Fatalf("recovered %v, want the case name and the original panic", r)
			}
		}()
		runCases(cases)
		t.Fatal("runCases returned normally")
	}()
	if n := finished.Load(); n != 3 {
		t.Errorf("%d healthy cases finished before the panic surfaced, want 3", n)
	}
	checkNoLeakedGoroutines(t, idle, "after the panic")
}
