// Package pubsub is a real-time publish–subscribe event channel in the
// TAO RT-Event-Service mold, layered over either clock domain the repo
// runs in: a simulation kernel's virtual time (deterministic tests,
// examples/missioncontrol) or the wall clock (the TCP wire plane).
//
// A Channel fans prioritized, topic-addressed events out to many
// subscribers. QoS is enforced at both ends of the channel: on the
// publisher side, per-topic token-bucket admission refuses events when
// a topic is saturated (the wire servant maps the refusal to CORBA
// TRANSIENT, the same taxonomy lane admission uses); on the subscriber
// side, every consumer owns a bounded outbox with a pluggable overflow
// policy — DropOldest, DropNewest, CoalesceByKey for video-frame-style
// keyed streams, Block for reliable consumers — so one slow
// best-effort subscriber absorbs its own losses instead of
// head-of-line-blocking EF fan-out.
//
// Degraded mode is the paper's adaptive-QoS contract applied to
// dissemination: when a QuO contract region, SLO burn or monitor alert
// asks for it (see BindContract and DegradePubSubOnBurn), BE
// subscribers are individually downgraded to coalescing/sampled
// delivery while EF subscribers keep their full streams.
//
// Every drop an outbox settles and every lag-watermark crossing is
// published by the channel itself on ChannelConfig.Bus, as KindDrop and
// KindSubLag records, the way netsim, rtcorba, orb and wire publish their
// own fates.
package pubsub

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// EFFloor is the CORBA priority at or above which a subscriber counts as
// expedited-forwarding — exempt from degradation, its fan-out latency in
// the "ef" band. It is the wire plane's EF band floor.
const EFFloor int16 = 16000

// Publish errors.
var (
	// ErrSaturated means per-topic admission refused the event; the wire
	// servant maps it to CORBA TRANSIENT minor 2.
	ErrSaturated = errors.New("pubsub: topic saturated, admission refused")
	// ErrClosed means the channel has been closed.
	ErrClosed = errors.New("pubsub: channel closed")
)

// Policy selects a subscriber outbox's overflow behaviour.
type Policy int

const (
	// DropOldest evicts the oldest queued event to admit the new one:
	// freshest-data-wins, the default for monitoring-style consumers.
	DropOldest Policy = iota
	// DropNewest discards the incoming event when the outbox is full,
	// preserving the queued backlog order.
	DropNewest
	// CoalesceByKey replaces a queued event carrying the same Key with
	// the new one (latest frame wins per key) and falls back to
	// DropOldest when no queued event shares the key. Designed for
	// video-frame-style streams where a stale frame has no value.
	CoalesceByKey
	// Block makes the publisher wait for outbox space — lossless
	// delivery for reliable consumers. Only valid on async channels,
	// where a dedicated pump goroutine guarantees the box drains.
	Block
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	case CoalesceByKey:
		return "coalesce"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy flag spelling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop-oldest", "":
		return DropOldest, nil
	case "drop-newest":
		return DropNewest, nil
	case "coalesce":
		return CoalesceByKey, nil
	case "block":
		return Block, nil
	default:
		return 0, fmt.Errorf("pubsub: unknown policy %q", s)
	}
}

// Event is one published occurrence.
type Event struct {
	// Topic is the '/'-separated subject the event is routed by.
	Topic string
	// Key is the optional coalescing key (frame stream id, sensor id);
	// CoalesceByKey outboxes keep only the latest event per key.
	Key string
	// Priority is the event's CORBA priority; subscribers filter on it
	// and the wire push rides it end to end.
	Priority int16
	// Payload is the opaque event body as carried on the wire.
	Payload []byte
	// Val optionally carries an in-process payload (e.g. a video.Frame)
	// for same-process subscribers; it never crosses the wire.
	Val any
	// Seq is the channel-assigned publication sequence number.
	Seq uint64
	// Published is the channel-clock publication instant.
	Published sim.Time

	// span is the publish span, threaded through to delivery exemplars.
	span trace.SpanContext
}

// Tracer is the span surface the channel instruments against; the wire
// plane's mutex-wrapped Tracer implements it. Nil disables spans.
type Tracer interface {
	StartRootLayer(layer, name string, attrs ...trace.Attr) trace.SpanContext
	StartChildLayer(parent trace.SpanContext, layer, name string, attrs ...trace.Attr) trace.SpanContext
	Finish(ctx trace.SpanContext, attrs ...trace.Attr)
}

// dropRecord is one event an outbox settled with a drop outcome, held
// until the channel publishes it with no lock held.
type dropRecord struct {
	sub, topic string
	seq        uint64
	// reason is the outcome's name ("overflow", "coalesced", "sampled" or
	// "closed"); empty for a delivery, which publishes nothing.
	reason string
	policy Policy
	depth  int      // outbox depth when the decision was taken
	at     sim.Time // channel-clock decision instant
}

// lagRecord is a subscriber crossing (lagging) or leaving its outbox lag
// high-watermark.
type lagRecord struct {
	sub           string
	depth, outbox int
	lagging       bool
	at            sim.Time
}

// SubscriberConfig describes one subscription.
type SubscriberConfig struct {
	// Name identifies the subscriber in stats, labels and records.
	Name string
	// Topic is the subscription's topic glob (see MatchTopic).
	Topic string
	// MinPriority filters out events below this priority.
	MinPriority int16
	// Priority is the subscriber's own band: >= EFFloor
	// marks it expedited (exempt from degradation), below marks it BE.
	Priority int16
	// Outbox bounds the subscriber's queue (default 64).
	Outbox int
	// Policy is the outbox overflow policy.
	Policy Policy
	// SampleEvery is the degraded-mode sampling stride for un-keyed
	// events: keep one event in every SampleEvery (default 2).
	SampleEvery int
	// Deliver consumes one event. Async channels call it from the
	// subscriber's pump goroutine; manual channels from PumpOne/PumpAll.
	Deliver func(Event)
}

// ChannelConfig configures a channel.
type ChannelConfig struct {
	// Name labels the channel in spans, stats and telemetry.
	Name string
	// Clock is the channel clock: the kernel for simulation channels,
	// nil for sim.Wall, the process clock the wire plane's spans and
	// records share.
	Clock sim.Clock
	// Async runs one pump goroutine per subscriber. When false the
	// caller drains outboxes explicitly with PumpOne/PumpAll — the
	// deterministic mode simulation tests and missioncontrol use.
	Async bool
	// Registry receives pubsub.* telemetry (fresh registry if nil).
	Registry *telemetry.Registry
	// Tracer emits layer-"pubsub" publish spans (nil = no spans).
	Tracer Tracer
	// Bus receives a KindDrop record, sourced "pubsub/<name>", for every
	// event an outbox drops, and a KindSubLag record for every lag
	// watermark crossing (nil = no records). They are published with no
	// channel or subscriber lock held, so a bus subscriber may call back
	// into the channel.
	Bus *events.Bus
}

// rateLimit is one per-topic token bucket; the first bucket whose
// pattern matches a published topic admits or refuses it.
type rateLimit struct {
	pattern string
	tb      sim.Bucket // one token per event
}

// Channel is a real-time pub/sub event channel.
type Channel struct {
	cfg    ChannelConfig
	reg    *telemetry.Registry
	clock  sim.Clock
	source string // the bus records' source

	mu        sync.Mutex
	seq       uint64
	published uint64
	refused   uint64
	subs      map[string]*Subscriber
	order     []*Subscriber // deterministic fan-out order (subscription order)
	limits    []*rateLimit
	degraded  bool
	closed    bool

	// left is the ledger of every unsubscribed subscriber (see leave), so
	// the channel's totals never go down.
	left [numOutcomes]atomic.Uint64

	wg sync.WaitGroup

	hFanoutEF *telemetry.Histogram
	hFanoutBE *telemetry.Histogram
}

// New creates a channel.
func New(cfg ChannelConfig) *Channel {
	if cfg.Name == "" {
		cfg.Name = "chan"
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.Wall
	}
	c := &Channel{
		cfg:    cfg,
		reg:    cfg.Registry,
		clock:  cfg.Clock,
		source: "pubsub/" + cfg.Name,
		subs:   make(map[string]*Subscriber),
	}
	c.hFanoutEF = c.reg.Histogram("pubsub.fanout_ms", telemetry.L("band", "ef"))
	c.hFanoutBE = c.reg.Histogram("pubsub.fanout_ms", telemetry.L("band", "be"))
	return c
}

// Now returns the channel clock reading.
func (c *Channel) Now() sim.Time { return c.clock.Now() }

// Name returns the channel's configured name.
func (c *Channel) Name() string { return c.cfg.Name }

// Async reports whether subscribers are pumped by their own goroutines.
func (c *Channel) Async() bool { return c.cfg.Async }

// Registry returns the channel's telemetry registry.
func (c *Channel) Registry() *telemetry.Registry { return c.reg }

// publishDrop puts one settled drop on the bus; a delivery (empty
// reason) publishes nothing. No locks held.
func (c *Channel) publishDrop(d dropRecord) {
	if c.cfg.Bus == nil || d.reason == "" {
		return
	}
	c.cfg.Bus.PublishAt(d.at, events.KindDrop, c.source,
		events.F("sub", d.sub),
		events.F("topic", d.topic),
		events.F("seq", strconv.FormatUint(d.seq, 10)),
		events.F("reason", d.reason),
		events.F("policy", d.policy.String()),
		events.F("depth", strconv.Itoa(d.depth)))
}

// publishLag puts a lag-watermark crossing, if any, on the bus. No locks
// held.
func (c *Channel) publishLag(l *lagRecord) {
	if c.cfg.Bus == nil || l == nil {
		return
	}
	state := "cleared"
	if l.lagging {
		state = "lagging"
	}
	c.cfg.Bus.PublishAt(l.at, events.KindSubLag, c.source,
		events.F("sub", l.sub),
		events.F("state", state),
		events.F("depth", strconv.Itoa(l.depth)),
		events.F("cap", strconv.Itoa(l.outbox)))
}

// Limit installs a per-topic admission token bucket: events published
// to topics matching pattern are admitted at rate events/second with
// the given burst. The first matching bucket (in installation order)
// decides; topics matching no bucket are never refused.
func (c *Channel) Limit(pattern string, rate, burst float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limits = append(c.limits, &rateLimit{pattern: pattern, tb: sim.NewBucket(rate, burst, c.Now())})
}

// admit spends a token from the first matching bucket; channel lock held.
func (c *Channel) admit(topic string, at sim.Time) bool {
	for _, l := range c.limits {
		if MatchTopic(l.pattern, topic) {
			return l.tb.Take(at, 1)
		}
	}
	return true
}

// Subscribe adds a subscriber and (on async channels) starts its pump.
func (c *Channel) Subscribe(cfg SubscriberConfig) (*Subscriber, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("pubsub: subscriber needs a name")
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("pubsub: subscriber %s needs a Deliver func", cfg.Name)
	}
	if cfg.Policy == Block && !c.cfg.Async {
		return nil, fmt.Errorf("pubsub: Block policy requires an async channel (manual pumps would deadlock the publisher)")
	}
	if cfg.Topic == "" {
		cfg.Topic = "**"
	}
	if cfg.Outbox <= 0 {
		cfg.Outbox = 64
	}
	if cfg.SampleEvery <= 1 {
		cfg.SampleEvery = 2
	}
	s := &Subscriber{ch: c, cfg: cfg}
	s.cond = sync.NewCond(&s.mu)
	s.gDepth = c.reg.Gauge("pubsub.outbox_depth", telemetry.L("sub", cfg.Name))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := c.subs[cfg.Name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("pubsub: duplicate subscriber %q", cfg.Name)
	}
	// A subscriber joining a degraded channel inherits the downgrade.
	s.degraded = c.degraded && cfg.Priority < EFFloor
	c.subs[cfg.Name] = s
	c.order = append(c.order, s)
	if c.cfg.Async {
		c.wg.Add(1)
		go s.run()
	}
	c.mu.Unlock()
	return s, nil
}

// Unsubscribe removes a subscriber, discarding its queued events: each
// is settled as closed and published as a drop, on either pump mode,
// and the channel's totals keep everything the subscriber delivered and
// dropped.
func (c *Channel) Unsubscribe(name string) bool {
	c.mu.Lock()
	s, ok := c.subs[name]
	if !ok {
		c.mu.Unlock()
		return false
	}
	delete(c.subs, name)
	c.order = slices.DeleteFunc(c.order, func(o *Subscriber) bool { return o == s })
	drops := s.leave()
	c.mu.Unlock()
	s.gDepth.Set(0)
	for _, d := range drops {
		c.publishDrop(d)
	}
	return true
}

// Sub returns the named subscriber, or nil.
func (c *Channel) Sub(name string) *Subscriber {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.subs[name]
}

// Publish routes an event to every matching subscriber. It returns
// ErrSaturated when the topic's admission bucket is empty and ErrClosed
// after Close; a successfully admitted event is never an error, however
// many subscriber outboxes dropped it.
func (c *Channel) Publish(ev Event) error {
	return c.PublishCtx(ev, trace.SpanContext{})
}

// PublishCtx is Publish with a parent span: the publish span becomes a
// layer-"pubsub" child of parent (the wire servant passes the push
// invocation's propagated span), or a root span when parent is invalid.
func (c *Channel) PublishCtx(ev Event, parent trace.SpanContext) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	at := c.Now()
	if !c.admit(ev.Topic, at) {
		c.refused++
		c.mu.Unlock()
		c.reg.Counter("pubsub.refused", telemetry.L("topic", ev.Topic)).Inc()
		return fmt.Errorf("%w: topic %s", ErrSaturated, ev.Topic)
	}
	c.seq++
	c.published++
	ev.Seq = c.seq
	ev.Published = at
	matched := make([]*Subscriber, 0, len(c.order))
	for _, s := range c.order {
		if ev.Priority >= s.cfg.MinPriority && MatchTopic(s.cfg.Topic, ev.Topic) {
			matched = append(matched, s)
		}
	}
	c.mu.Unlock()

	c.reg.Counter("pubsub.published").Inc()
	if c.cfg.Tracer != nil {
		attrs := []trace.Attr{
			trace.String("topic", ev.Topic),
			trace.Int("seq", int64(ev.Seq)),
			trace.Int("matched", int64(len(matched))),
		}
		if parent.Valid() {
			ev.span = c.cfg.Tracer.StartChildLayer(parent, trace.LayerPubSub, "pubsub.publish", attrs...)
		} else {
			ev.span = c.cfg.Tracer.StartRootLayer(trace.LayerPubSub, "pubsub.publish", attrs...)
		}
	}

	for _, s := range matched {
		drop, lag := s.offer(ev)
		c.publishDrop(drop)
		c.publishLag(lag)
	}
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Finish(ev.span)
	}
	return nil
}

// SetDegraded flips the channel-wide degradation mode: every BE
// subscriber (priority below the EF floor) is switched to
// coalescing/sampled delivery (restored on false). EF subscribers are
// untouched. Returns the number of subscribers toggled.
func (c *Channel) SetDegraded(on bool) int {
	c.mu.Lock()
	c.degraded = on
	targets := make([]*Subscriber, 0, len(c.order))
	for _, s := range c.order {
		if s.cfg.Priority < EFFloor {
			targets = append(targets, s)
		}
	}
	c.mu.Unlock()
	n := 0
	for _, s := range targets {
		if s.SetDegraded(on) {
			n++
		}
	}
	if n > 0 {
		state := "exit"
		if on {
			state = "enter"
		}
		c.reg.Counter("pubsub.degrade_transitions", telemetry.L("state", state)).Inc()
	}
	return n
}

// Degraded reports the channel-wide degradation mode.
func (c *Channel) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// PumpAll drains every subscriber's outbox on the calling goroutine
// (manual channels) and returns the number of events delivered.
func (c *Channel) PumpAll() int {
	c.mu.Lock()
	subs := append([]*Subscriber(nil), c.order...)
	c.mu.Unlock()
	n := 0
	for _, s := range subs {
		for s.PumpOne() {
			n++
		}
	}
	return n
}

// Close shuts the channel: publishes fail, subscribers' pumps drain
// their remaining backlog and exit, and Close blocks until they have.
func (c *Channel) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	subs := append([]*Subscriber(nil), c.order...)
	c.mu.Unlock()
	for _, s := range subs {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast() // wake the pump to drain and exit, and any Block publishers
		s.mu.Unlock()
	}
	c.wg.Wait()
}

// SubSnapshot is one subscriber's state for introspection. Its ledger
// conserves events: Offered == Delivered + Dropped + Depth, except for
// an offer still waiting for Block space, and Dropped is the sum of the
// four drop outcomes.
type SubSnapshot struct {
	Name        string `json:"name"`
	Topic       string `json:"topic"`
	Priority    int16  `json:"priority"`
	MinPriority int16  `json:"min_priority,omitempty"`
	Policy      string `json:"policy"`
	Outbox      int    `json:"outbox"`
	Depth       int    `json:"depth"`
	Offered     uint64 `json:"offered"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Overflow    uint64 `json:"overflow,omitempty"`
	Coalesced   uint64 `json:"coalesced,omitempty"`
	Sampled     uint64 `json:"sampled,omitempty"`
	Closed      uint64 `json:"closed,omitempty"`
	Degraded    bool   `json:"degraded,omitempty"`
	Lagging     bool   `json:"lagging,omitempty"`
}

// ChannelSnapshot is the channel's introspection view (the /debug/qos
// "pubsub" section). Delivered and Dropped count every subscriber the
// channel ever had, so neither goes down when one leaves.
type ChannelSnapshot struct {
	Name        string        `json:"name"`
	Published   uint64        `json:"published"`
	Refused     uint64        `json:"refused"`
	Delivered   uint64        `json:"delivered"`
	Dropped     uint64        `json:"dropped"`
	Degraded    bool          `json:"degraded"`
	Subscribers []SubSnapshot `json:"subscribers"`
}

// Snapshot captures the channel and per-subscriber state.
func (c *Channel) Snapshot() ChannelSnapshot {
	c.mu.Lock()
	snap := ChannelSnapshot{
		Name:      c.cfg.Name,
		Published: c.published,
		Refused:   c.refused,
		Degraded:  c.degraded,
	}
	// leave folds under c.mu too, so each subscriber is counted once: in
	// subs or in left.
	snap.Delivered = c.left[outcomeDelivered].Load()
	for o := outcomeOverflow; o < numOutcomes; o++ {
		snap.Dropped += c.left[o].Load()
	}
	subs := append([]*Subscriber(nil), c.order...)
	c.mu.Unlock()
	for _, s := range subs {
		ss := s.Stats()
		snap.Delivered += ss.Delivered
		snap.Dropped += ss.Dropped
		snap.Subscribers = append(snap.Subscribers, ss)
	}
	return snap
}

// Subscriber is one consumer's endpoint on a channel: its bounded
// outbox, overflow policy and delivery pump.
type Subscriber struct {
	ch  *Channel
	cfg SubscriberConfig

	mu   sync.Mutex
	cond *sync.Cond
	box  []Event
	// degraded forces coalescing (keyed events) or 1-in-SampleEvery
	// sampling (un-keyed) regardless of the configured policy.
	degraded bool
	skip     int
	closed   bool
	lagging  bool
	// left is set once Unsubscribe folded n into the channel's ledger;
	// settle folds any later outcome as it counts it.
	left bool

	// offered counts the events offer took, n their settled outcomes, and
	// counters is pubsub.outcomes{sub,outcome} by outcome, each resolved
	// at its first use.
	offered  uint64
	n        [numOutcomes]uint64
	counters [numOutcomes]*telemetry.Counter

	gDepth *telemetry.Gauge
}

// outcome is how one event offered to a subscriber's outbox ended. Each
// event gets exactly one, from settle; its name is the counter label and,
// for the four drops (every outcome after delivered), the KindDrop
// record's reason.
type outcome uint8

const (
	outcomeDelivered outcome = iota // popped for the consumer's Deliver
	outcomeOverflow                 // a full outbox's policy evicted it (DropOldest) or refused it (DropNewest)
	outcomeCoalesced                // a fresher event with its key and topic took its queued slot
	outcomeSampled                  // degraded sampling skipped it
	outcomeClosed                   // the subscriber closed first: offered after close, or queued at Unsubscribe
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"delivered", "overflow", "coalesced", "sampled", "closed"}

// Name returns the subscriber's name.
func (s *Subscriber) Name() string { return s.cfg.Name }

// SetDegraded switches this subscriber's degraded delivery on or off,
// reporting whether the state changed.
func (s *Subscriber) SetDegraded(on bool) bool {
	s.mu.Lock()
	changed := s.degraded != on
	s.degraded = on
	if !on {
		s.skip = 0
	}
	s.mu.Unlock()
	return changed
}

// Degraded reports the subscriber's degraded state.
func (s *Subscriber) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded
}

// lagHigh is the outbox depth that marks a subscriber lagging; lagLow
// is where the mark clears (hysteresis so one pop doesn't flap it).
func (s *Subscriber) lagHigh() int { return (s.cfg.Outbox*4 + 4) / 5 }
func (s *Subscriber) lagLow() int  { return s.cfg.Outbox / 2 }

// offer enqueues ev per the subscriber's policy and degradation state.
// It returns the drop it settled, if any (no branch drops more than one
// event; reason is empty when nothing was dropped), and a lag transition
// if one occurred. Called with no channel locks held; may block under
// the Block policy.
func (s *Subscriber) offer(ev Event) (drop dropRecord, lag *lagRecord) {
	at := ev.Published
	s.mu.Lock()
	defer func() {
		depth := len(s.box)
		s.mu.Unlock()
		s.gDepth.Set(float64(depth))
	}()
	s.offered++
	if s.closed {
		return s.settle(ev, outcomeClosed, at), nil
	}
	degraded := s.degraded
	if degraded && ev.Key == "" {
		// Sampled delivery: keep one event in every SampleEvery.
		s.skip++
		if s.skip%s.cfg.SampleEvery != 0 {
			return s.settle(ev, outcomeSampled, at), nil
		}
	}
	if (s.cfg.Policy == CoalesceByKey || degraded) && ev.Key != "" {
		for i := len(s.box) - 1; i >= 0; i-- {
			if s.box[i].Key == ev.Key && s.box[i].Topic == ev.Topic {
				old := s.box[i]
				s.box[i] = ev
				return s.settle(old, outcomeCoalesced, at), s.lagTransition(at)
			}
		}
	}
	if len(s.box) >= s.cfg.Outbox {
		switch s.cfg.Policy {
		case Block:
			for len(s.box) >= s.cfg.Outbox && !s.closed {
				s.cond.Wait()
			}
			if s.closed {
				return s.settle(ev, outcomeClosed, at), nil
			}
		case DropNewest:
			return s.settle(ev, outcomeOverflow, at), nil
		default: // DropOldest, and CoalesceByKey with no queued key match
			drop = s.settle(s.dropHead(), outcomeOverflow, at)
		}
	}
	s.box = append(s.box, ev)
	s.cond.Broadcast()
	return drop, s.lagTransition(at)
}

// settle records ev's one outcome o at this subscriber, decided at the
// channel-clock instant at: the only code that counts an event's fate.
// It returns the drop to publish, or the zero dropRecord for a delivery.
// Subscriber lock held.
func (s *Subscriber) settle(ev Event, o outcome, at sim.Time) dropRecord {
	s.n[o]++
	if s.left {
		s.ch.left[o].Add(1)
	}
	if s.counters[o] == nil {
		s.counters[o] = s.ch.reg.Counter("pubsub.outcomes", telemetry.L("sub", s.cfg.Name), telemetry.L("outcome", outcomeNames[o]))
	}
	s.counters[o].Inc()
	if o == outcomeDelivered {
		return dropRecord{}
	}
	return dropRecord{
		sub: s.cfg.Name, topic: ev.Topic, seq: ev.Seq,
		reason: outcomeNames[o], policy: s.cfg.Policy, depth: len(s.box), at: at,
	}
}

// leave closes the subscriber for Unsubscribe: every queued event is
// settled as closed, and the ledger is folded into the channel's. A
// publisher that matched the subscriber just before, or a Block
// publisher this wakes, may still settle one more event; settle folds
// those as it counts them. Channel lock held.
func (s *Subscriber) leave() []dropRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
	at := s.ch.Now()
	drops := make([]dropRecord, 0, len(s.box))
	for _, ev := range s.box {
		drops = append(drops, s.settle(ev, outcomeClosed, at))
	}
	s.box = nil
	for o, n := range s.n {
		s.ch.left[o].Add(n)
	}
	s.left = true
	return drops
}

// lagTransition updates the lag mark from the current depth; lock held.
func (s *Subscriber) lagTransition(at sim.Time) *lagRecord {
	depth := len(s.box)
	if !s.lagging && depth >= s.lagHigh() || s.lagging && depth <= s.lagLow() {
		s.lagging = !s.lagging
		return &lagRecord{sub: s.cfg.Name, depth: depth, outbox: s.cfg.Outbox, lagging: s.lagging, at: at}
	}
	return nil
}

// PumpOne delivers the subscriber's oldest queued event on the calling
// goroutine, reporting whether there was one. Manual channels call it
// (directly or via PumpAll); async channels pump themselves.
func (s *Subscriber) PumpOne() bool {
	s.mu.Lock()
	if len(s.box) == 0 {
		s.mu.Unlock()
		return false
	}
	ev, lag, depth := s.popLocked()
	s.mu.Unlock()
	s.deliver(ev, lag, depth)
	return true
}

// dropHead removes and returns the oldest queued event, clearing its
// slot so the outbox's backing array stops pinning the payload;
// subscriber lock held.
func (s *Subscriber) dropHead() Event {
	ev := s.box[0]
	s.box[0] = Event{}
	s.box = s.box[1:]
	return ev
}

// popLocked removes the head event for delivery; subscriber lock held.
func (s *Subscriber) popLocked() (Event, *lagRecord, int) {
	ev := s.dropHead()
	if len(s.box) == 0 {
		s.box = nil // reset backing array so it can be collected
	}
	at := s.ch.Now()
	s.settle(ev, outcomeDelivered, at)
	s.cond.Broadcast() // wake Block publishers waiting for space
	return ev, s.lagTransition(at), len(s.box)
}

// deliver invokes the consumer callback and records the fan-out
// latency; no locks held.
func (s *Subscriber) deliver(ev Event, lag *lagRecord, depth int) {
	s.cfg.Deliver(ev)
	s.gDepth.Set(float64(depth))
	latMs := float64(s.ch.Now()-ev.Published) / float64(time.Millisecond)
	h := s.ch.hFanoutBE
	if s.cfg.Priority >= EFFloor {
		h = s.ch.hFanoutEF
	}
	h.ObserveEx(latMs, telemetry.Exemplar{
		TraceID: uint64(ev.span.Trace), SpanID: uint64(ev.span.Span),
		At: time.Duration(ev.Published),
	})
	s.ch.publishLag(lag)
}

// run is the async pump: one goroutine per subscriber, so a slow
// consumer only ever stalls its own outbox.
func (s *Subscriber) run() {
	defer s.ch.wg.Done()
	for {
		s.mu.Lock()
		for len(s.box) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.box) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		ev, lag, depth := s.popLocked()
		s.mu.Unlock()
		s.deliver(ev, lag, depth)
	}
}

// Stats captures the subscriber's state and its ledger.
func (s *Subscriber) Stats() SubSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubSnapshot{
		Name:        s.cfg.Name,
		Topic:       s.cfg.Topic,
		Priority:    s.cfg.Priority,
		MinPriority: s.cfg.MinPriority,
		Policy:      s.cfg.Policy.String(),
		Outbox:      s.cfg.Outbox,
		Depth:       len(s.box),
		Offered:     s.offered,
		Delivered:   s.n[outcomeDelivered],
		Dropped:     s.n[outcomeOverflow] + s.n[outcomeCoalesced] + s.n[outcomeSampled] + s.n[outcomeClosed],
		Overflow:    s.n[outcomeOverflow],
		Coalesced:   s.n[outcomeCoalesced],
		Sampled:     s.n[outcomeSampled],
		Closed:      s.n[outcomeClosed],
		Degraded:    s.degraded,
		Lagging:     s.lagging,
	}
}
