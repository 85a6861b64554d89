package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Collector is the in-memory sink: it stores every ended span in
// end-order (deterministic, since the simulation is deterministic) and
// maintains an incremental per-trace index, so per-trace queries do not
// rescan the whole store.
//
// Spans may reach the collector in any end order — a child routinely
// ends before its parent (a dispatch before the invoke that caused it),
// and with oneway invocations the parent ends before its children. The
// collector never drops such orphans: they are indexed under their
// trace immediately and adopted into the tree the moment the parent
// ends. A span whose parent never ends (still open, or sampled away)
// stays queryable as the trace's effective root.
type Collector struct {
	spans   []*Span
	byTrace map[TraceID][]*Span
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{byTrace: make(map[TraceID][]*Span)} }

// OnEnd implements Sink.
func (c *Collector) OnEnd(s *Span) {
	c.spans = append(c.spans, s)
	if c.byTrace == nil { // tolerate a zero-value Collector
		c.byTrace = make(map[TraceID][]*Span)
	}
	c.byTrace[s.TraceID] = append(c.byTrace[s.TraceID], s)
}

// Spans returns all collected spans in end order.
func (c *Collector) Spans() []*Span { return c.spans }

// Len returns the number of collected spans.
func (c *Collector) Len() int { return len(c.spans) }

// Trace returns the spans belonging to one trace, in start order (ties
// broken by span ID, which is mint order).
func (c *Collector) Trace(id TraceID) []*Span {
	out := append([]*Span(nil), c.byTrace[id]...)
	sortSpans(out)
	return out
}

// TraceIDs returns the distinct trace IDs present, ascending.
func (c *Collector) TraceIDs() []TraceID {
	out := make([]TraceID, 0, len(c.byTrace))
	for id := range c.byTrace {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Root returns the root span of a trace: the one without a parent, or —
// when the true root has not ended (out-of-order child-before-parent
// delivery, an unfinished or sampled-away root) — the effective root:
// the earliest-started span whose parent is absent from the trace. It
// returns nil only for traces with no spans at all.
func (c *Collector) Root(id TraceID) *Span {
	spans := c.Trace(id)
	byID := make(map[SpanID]*Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			return s
		}
	}
	for _, s := range spans {
		if byID[s.Parent] == nil {
			return s
		}
	}
	return nil
}

func sortSpans(spans []*Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}

// RenderTree renders one trace as an indented deterministic text tree:
// every span line shows name, layer, start offset and duration; events
// are nested beneath their span.
func (c *Collector) RenderTree(id TraceID) string {
	spans := c.Trace(id)
	if len(spans) == 0 {
		return fmt.Sprintf("trace %d: no spans\n", id)
	}
	children := make(map[SpanID][]*Span)
	byID := make(map[SpanID]*Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var roots []*Span
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] != nil {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d (%d spans)\n", id, len(spans))
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		indent := strings.Repeat("  ", depth)
		orphan := ""
		if s.Parent != 0 && byID[s.Parent] == nil {
			// Parent span absent (still open or sampled away): render the
			// subtree anyway, marked, instead of silently faking a root.
			orphan = fmt.Sprintf(" (orphan of span %d)", s.Parent)
		}
		fmt.Fprintf(&b, "%s- %s [%s] @%v +%v%s%s\n",
			indent, s.Name, s.Layer, s.Start, s.Duration(), orphan, renderAttrs(s.Attrs))
		for _, ev := range s.Events {
			fmt.Fprintf(&b, "%s    * %s @%v%s\n", indent, ev.Name, ev.T, renderAttrs(ev.Attrs))
		}
		for _, ch := range children[s.ID] {
			walk(ch, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 1)
	}
	return b.String()
}

func renderAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" {")
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", a.Key, a.Val)
	}
	b.WriteString("}")
	return b.String()
}

// LayerShare is one layer's exclusive share of a root span's wall time.
type LayerShare struct {
	Layer string
	Time  sim.Time
}

// Breakdown decomposes the root span's wall-clock interval into
// exclusive per-layer durations: every instant of [root.Start, root.End]
// is charged to the deepest span covering it (ties to the most recently
// minted span), so the shares sum exactly to the root's duration — the
// critical-path property the trace scenario's audit claim checks.
//
// Layers are returned in descending time order (ties by name) for
// deterministic rendering.
func (c *Collector) Breakdown(id TraceID) ([]LayerShare, sim.Time) {
	root := c.Root(id)
	if root == nil || !root.Ended() {
		return nil, 0
	}
	spans := c.Trace(id)
	byID := make(map[SpanID]*Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	depth := func(s *Span) int {
		d := 0
		for cur := s; cur.Parent != 0; {
			p := byID[cur.Parent]
			if p == nil {
				break
			}
			d++
			cur = p
		}
		return d
	}

	// Collect candidate intervals clipped to the root's window.
	type interval struct {
		start, end sim.Time
		depth      int
		id         SpanID
		layer      string
	}
	var ivs []interval
	var bounds []sim.Time
	for _, s := range spans {
		if !s.Ended() || s.TraceID != id {
			continue
		}
		start, end := s.Start, s.End
		if start < root.Start {
			start = root.Start
		}
		if end > root.End {
			end = root.End
		}
		if end <= start && s != root {
			continue
		}
		ivs = append(ivs, interval{start: start, end: end, depth: depth(s), id: s.ID, layer: s.Layer})
		bounds = append(bounds, start, end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	shares := make(map[string]sim.Time)
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		best := -1
		for j, iv := range ivs {
			if iv.start <= lo && iv.end >= hi {
				if best < 0 || iv.depth > ivs[best].depth ||
					(iv.depth == ivs[best].depth && iv.id > ivs[best].id) {
					best = j
				}
			}
		}
		if best >= 0 {
			shares[ivs[best].layer] += hi - lo
		}
	}

	out := make([]LayerShare, 0, len(shares))
	for layer, t := range shares {
		out = append(out, LayerShare{Layer: layer, Time: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Layer < out[j].Layer
	})
	return out, root.Duration()
}
