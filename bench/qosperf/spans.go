package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// The traced pass records the bench's own spans around its calls into
// the program: "op" (root, around Invoke / PublishRemote / one Verify
// pass), "servant" and "deliver" (children, recorded in the bench's
// handlers). A child finds its parent through the 8-byte sequence stamp
// at the head of every body, which is also the trace id, so one op's
// spans share one id. Spans stay in memory until the pass ends.

// Span ids within one trace.
const (
	spanOp       uint64 = 1
	spanServant  uint64 = 2
	spanDeliver0 uint64 = 3 // + subscriber index
)

// kind says which of the bench's three spans one is; its name and
// layer follow from it. The in-memory span holds no pointer so the log
// can live outside the Go heap (see offHeap).
type kind uint8

const (
	kindOp kind = iota
	kindServant
	kindDeliver
)

var kindNames = [...]struct{ name, layer string }{
	kindOp:      {"op", "bench.gen"},
	kindServant: {"servant", "bench.servant"},
	kindDeliver: {"deliver", "bench.consumer"},
}

type span struct {
	Trace, ID, Parent uint64
	Kind              kind
	Start, End        int64 // nanoseconds since the repetition's epoch
}

// spanLog is a fixed slab the generator and handler goroutines append
// to without locking; a full slab drops (and counts) further spans.
type spanLog struct {
	n       atomic.Int64
	buf     []span
	dropped atomic.Int64
}

func newSpanLog(measure time.Duration) *spanLog {
	return &spanLog{buf: offHeap[span](int(measure.Seconds()*sampleRate) + 4096)}
}

func (l *spanLog) add(s span) {
	i := l.n.Add(1) - 1
	if int(i) >= len(l.buf) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = s
}

func (l *spanLog) all() []span { return l.buf[:min(int(l.n.Load()), len(l.buf))] }

// legs is one op (or one delivery) cut at its child span: the time
// before the child began, inside it, and after it ended.
type legs struct{ total, before, inside, after int64 }

// medianLegs averages the legs of the ops whose total lies in the
// middle tenth (45th to 55th percentile), so the three legs add up to
// the median op rather than being three unrelated medians.
func medianLegs(ls []legs) (total, before, inside, after float64) {
	if len(ls) == 0 {
		return
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].total < ls[j].total })
	mid := ls[len(ls)*45/100 : len(ls)*55/100+1]
	for _, l := range mid {
		total += float64(l.total)
		before += float64(l.before)
		inside += float64(l.inside)
		after += float64(l.after)
	}
	n := float64(len(mid)) * 1e3 // and to microseconds
	return total / n, before / n, inside / n, after / n
}

// pathMetrics turns the spans into the path.* rows: the median op's
// self time — its duration minus what its child span covers — split at
// the child into the leg before and the leg after. For an echo the
// child is the servant: request leg, servant, reply leg. For a pub/sub
// delivery the total is publish start to consumer entry, cut where the
// publish call returned: the share spent while the publisher was still
// in the call, and the share after it (a push often reaches its
// consumer before the publish reply reaches the publisher).
func pathMetrics(spans []span, layers map[string]float64) (opMedianUs float64) {
	ops := make(map[uint64]span)
	var durs []int64
	for _, s := range spans {
		if s.ID == spanOp {
			ops[s.Trace] = s
			durs = append(durs, s.End-s.Start)
		}
	}
	var echo, deliveries []legs
	for _, s := range spans {
		o, ok := ops[s.Trace]
		if !ok {
			continue
		}
		switch s.Kind {
		case kindServant:
			echo = append(echo, legs{o.End - o.Start, s.Start - o.Start, s.End - s.Start, o.End - s.End})
		case kindDeliver:
			inCall := min(o.End, s.Start) - o.Start
			deliveries = append(deliveries, legs{total: s.Start - o.Start, before: inCall, after: s.Start - o.Start - inCall})
		}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	opMedianUs = percentile(durs, 0.5) / 1e3
	if len(echo) > 0 {
		_, layers["path.request_us"], layers["path.servant_us"], layers["path.reply_us"] = medianLegs(echo)
	}
	if len(deliveries) > 0 {
		opMedianUs, layers["path.publish_us"], _, layers["path.outbox_push_us"] = medianLegs(deliveries)
	}
	return opMedianUs
}

// maxTracesWritten caps the traces a trace file holds: the path.* rows
// use every span in memory, the file is for reading individual ops.
const maxTracesWritten = 5_000

// writeSpans writes the bench spans (src "bench") of the first
// maxTracesWritten ops and the matching share of the program's own
// spans (src "program": the wire.invoke / wire.dispatch spans the
// Tracer options produced) as JSON lines.
func writeSpans(path string, spans []span, program []*trace.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Src    string `json:"src"`
		Trace  uint64 `json:"trace"`
		ID     uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	kept := make(map[uint64]bool)
	for _, s := range spans {
		if s.ID == spanOp && len(kept) < maxTracesWritten {
			kept[s.Trace] = true
		}
	}
	for _, s := range spans {
		if kept[s.Trace] {
			k := kindNames[s.Kind]
			if err := enc.Encode(line{"bench", s.Trace, s.ID, s.Parent, k.name, k.layer, s.Start, s.End}); err != nil {
				f.Close()
				return err
			}
		}
	}
	progTraces := make(map[trace.TraceID]bool)
	for _, s := range program {
		if !progTraces[s.TraceID] && len(progTraces) >= maxTracesWritten {
			continue
		}
		progTraces[s.TraceID] = true
		err := enc.Encode(line{"program", uint64(s.TraceID), uint64(s.ID), uint64(s.Parent),
			s.Name, s.Layer, int64(s.Start), int64(s.End)})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
