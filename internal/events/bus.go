// Package events is the monitoring bus: the observability spine that
// merges occurrences from every middleware layer — span ends,
// circuit-breaker transitions, FT failovers, lane sheds, network drops,
// QuO region transitions, alert rule firings — into one ordered,
// structured event timeline. (The paper's network-based Real-Time Event
// Service, typed payloads fanned out by priority, is internal/pubsub.)
//
// Ordering guarantees: every published record carries a monotonically
// increasing sequence number assigned under the bus lock, records are
// delivered to subscribers synchronously in subscription order, and a
// Timeline stores them in publication order. Within one simulation the
// publication order is the deterministic kernel event order, so two
// runs of the same seeded scenario produce identical timelines.
package events

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Kind classifies a monitoring record for subscription filtering.
type Kind string

// Built-in record kinds published by the monitoring plane's wiring.
const (
	// KindSpanEnd is a notable span ending (errors, sheds, FT activity).
	KindSpanEnd Kind = "span_end"
	// KindBreaker is a client-side circuit-breaker state transition.
	KindBreaker Kind = "breaker"
	// KindFailover is a client failover attempt to an alternate replica.
	KindFailover Kind = "failover"
	// KindShed is a thread-pool lane discarding admitted or arriving work.
	KindShed Kind = "shed"
	// KindDrop is the network destroying a packet.
	KindDrop Kind = "drop"
	// KindRegion is a QuO contract region transition.
	KindRegion Kind = "region"
	// KindAlert is an alert rule changing state (firing or resolved).
	KindAlert Kind = "alert"
	// KindSample marks a monitoring sampler tick.
	KindSample Kind = "sample"
	// KindSLOBurn is an SLO burn-rate window pair changing state
	// (firing when both windows exceed the pair's burn threshold).
	KindSLOBurn Kind = "slo_burn"
	// KindChaos is a chaos-injection boundary: a fault in a chaos
	// proxy's schedule starting or stopping (chaos_* records let fault
	// timelines line up with failover and breaker records).
	KindChaos Kind = "chaos"
	// KindHealth is an endpoint health-probe verdict changing (a group
	// client marking an endpoint down or back up).
	KindHealth Kind = "health"
	// KindProfile is a pprof capture completing (periodic or triggered
	// by an alert/burn record); fields carry the on-disk profile path
	// and, for triggered captures, the firing record that caused it.
	KindProfile Kind = "profile"
	// KindSubLag is a pub/sub subscriber's outbox crossing (or leaving)
	// its lag high-watermark: the consumer is falling behind the
	// channel's fan-out and its overflow policy is about to engage.
	KindSubLag Kind = "sub_lag"
)

// Field is one ordered key/value annotation on a record.
type Field struct {
	K, V string
}

// F is shorthand for building a Field.
func F(k, v string) Field { return Field{K: k, V: v} }

// Record is one occurrence on the monitoring bus.
type Record struct {
	// Seq is the bus-assigned publication sequence number, strictly
	// increasing across all kinds.
	Seq uint64
	// At is the occurrence time on the bus clock — kernel time in a
	// simulation, time since process start on sim.Wall (the domain of
	// wire tracer spans).
	At sim.Time
	// Wall is the absolute wall-clock occurrence time. It is stamped
	// only by buses on a clock that knows it (sim.Wall); simulation
	// records leave it zero and keep rendering in virtual time.
	Wall time.Time
	// Kind classifies the record.
	Kind Kind
	// Source names the emitting component (an ORB, a pool, a contract).
	Source string
	// Fields are ordered annotations.
	Fields []Field
}

// String renders the record as one deterministic line. Simulation
// records render their virtual timestamp; live records (non-zero Wall)
// render the wall-clock time instead, so `/events` output from a real
// process reads in human time.
func (r Record) String() string {
	var b strings.Builder
	if !r.Wall.IsZero() {
		fmt.Fprintf(&b, "%s  %-9s %-20s", r.Wall.Format("15:04:05.000"), r.Kind, r.Source)
	} else {
		fmt.Fprintf(&b, "%12v  %-9s %-20s", r.At, r.Kind, r.Source)
	}
	for _, f := range r.Fields {
		fmt.Fprintf(&b, " %s=%s", f.K, f.V)
	}
	return b.String()
}

// BusSub is one bus subscription; Cancel stops delivery.
type BusSub struct {
	id    uint64
	kinds map[Kind]bool // nil = all kinds
	fn    func(Record)
	// cancelled is atomic: Cancel may run on any goroutine while
	// publishers are reading the subscription list.
	cancelled atomic.Bool
}

// Cancel stops delivery to this subscription.
func (s *BusSub) Cancel() { s.cancelled.Store(true) }

// Bus is the monitoring event bus. It is safe for concurrent use; in a
// simulation all publishes come from the kernel goroutine and are
// therefore deterministically ordered.
type Bus struct {
	clock sim.Clock
	wall  func() time.Time // nil on clocks without absolute time
	mu    sync.Mutex
	seq   uint64
	sub   []*BusSub
}

// NewBus creates a bus stamping records with clock: a simulation kernel,
// or sim.Wall in a live process — whose records (including those via
// PublishAt) additionally carry the absolute wall-clock time.
func NewBus(clock sim.Clock) *Bus {
	b := &Bus{clock: clock}
	if w, ok := clock.(interface{ WallTime() time.Time }); ok {
		b.wall = w.WallTime
	}
	return b
}

// Subscribe registers fn for the given kinds (none = every kind).
// Subscribers are invoked synchronously at publish time, in
// subscription order.
func (b *Bus) Subscribe(fn func(Record), kinds ...Kind) *BusSub {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++ // subscription ids share the sequence space; only order matters
	s := &BusSub{id: b.seq, fn: fn}
	if len(kinds) > 0 {
		s.kinds = make(map[Kind]bool, len(kinds))
		for _, k := range kinds {
			s.kinds[k] = true
		}
	}
	b.sub = append(b.sub, s)
	return s
}

// Publish stamps a record with the bus clock and delivers it.
func (b *Bus) Publish(kind Kind, source string, fields ...Field) Record {
	return b.PublishAt(b.clock.Now(), kind, source, fields...)
}

// PublishAt delivers a record carrying an explicit timestamp, for
// sources that know their occurrence time (or callers off the kernel
// goroutine, where reading the kernel clock would race).
func (b *Bus) PublishAt(at sim.Time, kind Kind, source string, fields ...Field) Record {
	var wall time.Time
	if b.wall != nil {
		wall = b.wall()
	}
	b.mu.Lock()
	b.seq++
	r := Record{Seq: b.seq, At: at, Wall: wall, Kind: kind, Source: source, Fields: fields}
	subs := make([]*BusSub, len(b.sub))
	copy(subs, b.sub)
	b.mu.Unlock()
	for _, s := range subs {
		if s.cancelled.Load() {
			continue
		}
		if s.kinds != nil && !s.kinds[kind] {
			continue
		}
		s.fn(r)
	}
	return r
}

// Timeline is a bus subscriber that stores records in publication
// order, the unified event timeline the dashboard renders.
type Timeline struct {
	mu      sync.Mutex
	records []Record
}

// NewTimeline subscribes a timeline to b for the given kinds (none =
// every kind).
func NewTimeline(b *Bus, kinds ...Kind) *Timeline {
	tl := &Timeline{}
	b.Subscribe(tl.add, kinds...)
	return tl
}

func (tl *Timeline) add(r Record) {
	tl.mu.Lock()
	tl.records = append(tl.records, r)
	tl.mu.Unlock()
}

// Records returns the stored records in publication order.
func (tl *Timeline) Records() []Record {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]Record(nil), tl.records...)
}

// Len returns the number of stored records.
func (tl *Timeline) Len() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.records)
}

// Counts returns per-kind record counts.
func (tl *Timeline) Counts() map[Kind]int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make(map[Kind]int)
	for _, r := range tl.records {
		out[r.Kind]++
	}
	return out
}

// Render prints the timeline, one record per line, optionally filtered
// to the given kinds (none = all). Records are already in (At, Seq)
// order because simulation time is monotone at publish.
func (tl *Timeline) Render(kinds ...Kind) string {
	var filter map[Kind]bool
	if len(kinds) > 0 {
		filter = make(map[Kind]bool, len(kinds))
		for _, k := range kinds {
			filter[k] = true
		}
	}
	var b strings.Builder
	for _, r := range tl.Records() {
		if filter != nil && !filter[r.Kind] {
			continue
		}
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderCounts prints per-kind counts, sorted by kind, one per line.
func (tl *Timeline) RenderCounts() string {
	counts := tl.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-10s %d\n", k, counts[Kind(k)])
	}
	return b.String()
}
