package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// simCase is one independent simulation of an experiment. It owns its
// kernel, seed and network and writes its result into a slot of its
// own, so it may run beside any other case.
type simCase struct {
	name string
	run  func()
}

// runCases runs every case, at most runtime.GOMAXPROCS(0) at a time,
// and returns when all have finished. The calling goroutine is one of
// the workers. Results land in the slots the cases write, so whatever
// the caller assembles from them afterwards is independent of which
// case finished first. A case that panics re-panics here, on the
// caller's goroutine, with the case's name and stack.
func runCases(cases []simCase) {
	workers := min(runtime.GOMAXPROCS(0), len(cases))
	var next atomic.Int64
	panics := make([]any, len(cases))
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(cases) {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panics[i] = fmt.Sprintf("%v\n%s", r, debug.Stack())
					}
				}()
				cases[i].run()
			}()
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("experiments: case %q panicked: %v", cases[i].name, r))
		}
	}
}

// run runs an experiment's cases and assembles its result from them.
func run[T any](cases []simCase, assemble func() T) T {
	runCases(cases)
	return assemble()
}
