package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/pubsub"
	"repro/internal/sim"
)

// This file is the pub/sub channel's wire plane: a ChannelHost servant
// that exposes a pubsub.Channel over GIOP (publish / subscribe /
// unsubscribe / stats operations), and the consumer-side push handler.
// Events travel as ordinary GIOP requests whose body is the opaque
// payload and whose ServiceEventContext (0x15) carries the descriptor
// — topic, key, sequence, priority, publication time — so the push
// rides the same priority-banded connections, lanes, deadlines and
// trace propagation every other invocation uses.

// SubscribeSpec is the wire form of a subscription request: where to
// push (Addr + ConsumerKey) and the subscriber QoS (filter, band,
// outbox bound, overflow policy).
type SubscribeSpec struct {
	// Name identifies the subscription (also the unsubscribe handle).
	Name string
	// Addr is the consumer's wire.Server listen address the host dials
	// back to push events.
	Addr string
	// ConsumerKey is the object key the consumer registered its push
	// handler under.
	ConsumerKey string
	// Topic is the subscription glob; MinPriority filters events.
	Topic       string
	MinPriority int16
	// Priority is the subscriber's own band: it selects the push
	// connection band and classifies the subscriber EF/BE for
	// degradation.
	Priority int16
	// Outbox bounds the host-side queue; Policy is its overflow policy.
	Outbox uint32
	Policy pubsub.Policy
	// SampleEvery is the degraded-mode sampling stride (default 2).
	SampleEvery uint32
}

// EncodeSubscribe builds the CDR body of a "subscribe" invocation.
func EncodeSubscribe(sp SubscribeSpec, order cdr.ByteOrder) []byte {
	e := cdr.NewEncoder(order)
	e.PutOctet(byte(order))
	e.PutString(sp.Name)
	e.PutString(sp.Addr)
	e.PutString(sp.ConsumerKey)
	e.PutString(sp.Topic)
	e.PutShort(sp.MinPriority)
	e.PutShort(sp.Priority)
	e.PutULong(sp.Outbox)
	e.PutString(sp.Policy.String())
	e.PutULong(sp.SampleEvery)
	return e.Bytes()
}

// DecodeSubscribe parses a "subscribe" invocation body.
func DecodeSubscribe(body []byte) (SubscribeSpec, error) {
	var sp SubscribeSpec
	if len(body) < 1 {
		return sp, fmt.Errorf("wire: empty subscribe body")
	}
	d := cdr.NewDecoder(body, cdr.ByteOrder(body[0]))
	if _, err := d.Octet(); err != nil {
		return sp, err
	}
	var err error
	var policy string
	if sp.Name, err = d.String(); err != nil {
		return sp, fmt.Errorf("wire: subscribe name: %w", err)
	}
	if sp.Addr, err = d.String(); err != nil {
		return sp, fmt.Errorf("wire: subscribe addr: %w", err)
	}
	if sp.ConsumerKey, err = d.String(); err != nil {
		return sp, fmt.Errorf("wire: subscribe consumer key: %w", err)
	}
	if sp.Topic, err = d.String(); err != nil {
		return sp, fmt.Errorf("wire: subscribe topic: %w", err)
	}
	if sp.MinPriority, err = d.Short(); err != nil {
		return sp, fmt.Errorf("wire: subscribe min priority: %w", err)
	}
	if sp.Priority, err = d.Short(); err != nil {
		return sp, fmt.Errorf("wire: subscribe priority: %w", err)
	}
	if sp.Outbox, err = d.ULong(); err != nil {
		return sp, fmt.Errorf("wire: subscribe outbox: %w", err)
	}
	if policy, err = d.String(); err != nil {
		return sp, fmt.Errorf("wire: subscribe policy: %w", err)
	}
	if sp.Policy, err = pubsub.ParsePolicy(policy); err != nil {
		return sp, err
	}
	if sp.SampleEvery, err = d.ULong(); err != nil {
		return sp, fmt.Errorf("wire: subscribe sample stride: %w", err)
	}
	return sp, nil
}

// ChannelHostConfig shapes the host's push side.
type ChannelHostConfig struct {
	// NewPushClient overrides push-client construction — the loopback
	// hook for socket-free tests; no program sets it. Default: NewClient
	// to the address over pushBands.
	NewPushClient func(addr string) (*Client, error)
	// Tracer traces push invocations (nil = none).
	Tracer *Tracer
}

// pushBands are the push clients' connection bands, so EF events never
// queue behind BE bytes on the way to a consumer either. A push is an
// ordinary oneway invocation, bounded by the client's request timeout.
var pushBands = []int16{0, EFPriority}

// ChannelHost is the servant exposing a pubsub.Channel on a wire
// Server. The channel must be asynchronous: each remote subscriber is
// pumped by its own goroutine, so one slow consumer connection only
// ever stalls its own outbox. A published event's payload is req.Body,
// parked in subscriber outboxes past Dispatch's return, so publish calls
// req.Retain.
type ChannelHost struct {
	ch  *pubsub.Channel
	cfg ChannelHostConfig
	// names reuses the topic and key strings of consecutive publishes.
	names eventNames

	mu      sync.Mutex
	pushers map[string]*Client
	closed  bool
}

// NewChannelHost wraps ch (which must have been created Async) in a
// wire servant.
func NewChannelHost(ch *pubsub.Channel, cfg ChannelHostConfig) (*ChannelHost, error) {
	if !ch.Async() {
		return nil, fmt.Errorf("wire: channel host needs an async channel (remote pushes block)")
	}
	return &ChannelHost{ch: ch, cfg: cfg, pushers: make(map[string]*Client)}, nil
}

// Dispatch implements Handler.
func (h *ChannelHost) Dispatch(req *Request) ([]byte, error) {
	switch req.Operation {
	case "publish":
		return h.publish(req)
	case "subscribe":
		return h.subscribe(req)
	case "unsubscribe":
		return h.unsubscribe(req)
	case "stats":
		snap := h.ch.Snapshot()
		return json.Marshal(snap)
	default:
		return nil, &Exception{ID: giop.ExcBadOperation, Minor: 1}
	}
}

func (h *ChannelHost) publish(req *Request) ([]byte, error) {
	ev, exc := h.names.event(req)
	if exc != nil {
		return nil, exc
	}
	req.Retain()
	if err := h.ch.PublishCtx(ev, req.TraceCtx); err != nil {
		if errors.Is(err, pubsub.ErrSaturated) {
			// The same refusal lane admission uses: a TRANSIENT shed,
			// which clients decode as ErrOverload.
			return nil, &Exception{ID: giop.ExcTransient, Minor: giop.MinorShed}
		}
		return nil, &Exception{ID: giop.ExcTransient, Minor: 1}
	}
	return nil, nil
}

func (h *ChannelHost) subscribe(req *Request) ([]byte, error) {
	sp, err := DecodeSubscribe(req.Body)
	if err != nil {
		return nil, &Exception{ID: giop.ExcBadParam, Minor: 3}
	}
	if sp.Addr == "" || sp.ConsumerKey == "" {
		return nil, &Exception{ID: giop.ExcBadParam, Minor: 4}
	}
	cli, err := h.pushClient(sp)
	if errors.Is(err, errDuplicateSubscription) {
		return nil, &Exception{ID: giop.ExcBadParam, Minor: 5}
	}
	if err != nil {
		return nil, &Exception{ID: giop.ExcTransient, Minor: 1}
	}
	key, tracer := sp.ConsumerKey, h.cfg.Tracer
	// The subscriber's pump goroutine is the only caller of Deliver, one
	// event at a time, so its pushes can share one encoding buffer.
	var buf pushBuf
	_, err = h.ch.Subscribe(pubsub.SubscriberConfig{
		Name:        sp.Name,
		Topic:       sp.Topic,
		MinPriority: sp.MinPriority,
		Priority:    sp.Priority,
		Outbox:      int(sp.Outbox),
		Policy:      sp.Policy,
		SampleEvery: int(sp.SampleEvery),
		Deliver: func(ev pubsub.Event) {
			buf.push(cli, key, ev, CallOptions{Oneway: true}, tracer)
		},
	})
	if err != nil {
		h.releasePusher(sp.Name)
		return nil, &Exception{ID: giop.ExcBadParam, Minor: 5}
	}
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutOctet(byte(cdr.LittleEndian))
	e.PutString(sp.Name)
	return e.Bytes(), nil
}

func (h *ChannelHost) unsubscribe(req *Request) ([]byte, error) {
	if len(req.Body) < 1 {
		return nil, &Exception{ID: giop.ExcBadParam, Minor: 1}
	}
	d := cdr.NewDecoder(req.Body, cdr.ByteOrder(req.Body[0]))
	if _, err := d.Octet(); err != nil {
		return nil, &Exception{ID: giop.ExcBadParam, Minor: 1}
	}
	name, err := d.String()
	if err != nil {
		return nil, &Exception{ID: giop.ExcBadParam, Minor: 1}
	}
	if !h.ch.Unsubscribe(name) {
		return nil, &Exception{ID: giop.ExcObjectNotExist, Minor: 2}
	}
	h.releasePusher(name)
	return nil, nil
}

var errDuplicateSubscription = errors.New("wire: subscription name in use")

// pushClient builds (and records) the per-subscription push client. A
// name that already has one is refused before anything is touched: the
// live subscription's Deliver is bound to that client, so replacing it
// would leave the subscription pushing into a closed client. To move a
// subscription, unsubscribe first.
func (h *ChannelHost) pushClient(sp SubscribeSpec) (*Client, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("wire: channel host closed")
	}
	if _, ok := h.pushers[sp.Name]; ok {
		return nil, errDuplicateSubscription
	}
	var cli *Client
	var err error
	if h.cfg.NewPushClient != nil {
		cli, err = h.cfg.NewPushClient(sp.Addr)
	} else {
		cli, err = NewClient(ClientConfig{
			Addr:     sp.Addr,
			Bands:    pushBands,
			Registry: h.ch.Registry(),
			Name:     "pubsub.push." + sp.Name,
		})
	}
	if err != nil {
		return nil, err
	}
	h.pushers[sp.Name] = cli
	return cli, nil
}

func (h *ChannelHost) releasePusher(name string) {
	h.mu.Lock()
	cli := h.pushers[name]
	delete(h.pushers, name)
	h.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// Close unsubscribes every remote subscription this host created and
// closes its push clients. The channel itself stays open (its owner
// closes it).
func (h *ChannelHost) Close() {
	h.mu.Lock()
	h.closed = true
	pushers := h.pushers
	h.pushers = make(map[string]*Client)
	h.mu.Unlock()
	for name, cli := range pushers {
		h.ch.Unsubscribe(name)
		cli.Close()
	}
}

// PushEvent sends one event as a GIOP "push" to a consumer: the body is
// the payload, the ServiceEventContext the descriptor, the priority the
// event's own (selecting band and lane). Push errors are swallowed —
// delivery QoS is the outbox policy's job, not the transport's.
func PushEvent(inv Invoker, key string, ev pubsub.Event, opts CallOptions, tracer *Tracer) {
	var buf pushBuf
	buf.push(inv, key, ev, opts, tracer)
}

// pushBuf holds a push's event context between pushes: a ChannelHost
// subscription keeps one and re-encodes each event into it. That is safe
// because one subscriber's pushes run one at a time on its pump goroutine,
// and Invoke has marshalled the contexts into its frame before it
// returns.
type pushBuf struct {
	data []byte
	ctxs [1]giop.ServiceContext
}

// push is PushEvent on b's buffers. opts carries no contexts of its own.
func (b *pushBuf) push(inv Invoker, key string, ev pubsub.Event, opts CallOptions, tracer *Tracer) {
	opts.Priority = ev.Priority
	b.data = giop.AppendEventContext(b.data[:0], ev.Topic, ev.Key, ev.Seq, ev.Priority, int64(ev.Published), cdr.LittleEndian)
	b.ctxs[0] = giop.ServiceContext{ID: giop.ServiceEventContext, Data: b.data}
	opts.contexts = b.ctxs[:]
	_, err := inv.Invoke(key, "push", ev.Payload, opts)
	if err != nil && tracer != nil {
		// Record the failed push as a zero-length span so losses at the
		// transport show up on the trace timeline.
		ctx := tracer.StartRootLayer("pubsub", "pubsub.push_error")
		tracer.Finish(ctx)
	}
}

// eventNames decodes a request's event descriptor and hands out its topic
// and key as strings, reusing the last pair it made while the next
// event's bytes match: a subscriber or a publisher usually sends one
// topic and one key over and over. A miss makes the strings afresh, as
// decoding always did. Lane workers share it, so a mutex guards the pair.
type eventNames struct {
	mu         sync.Mutex
	topic, key string
}

// event builds the Event a push or publish carries, or the BAD_PARAM
// exception for a request whose event context is missing (minor 1) or
// malformed (minor 2). The payload is req.Body, which the caller must
// retain if it keeps the event.
func (n *eventNames) event(req *Request) (pubsub.Event, *Exception) {
	data, ok := giop.FindContext(req.Contexts, giop.ServiceEventContext)
	if !ok {
		return pubsub.Event{}, &Exception{ID: giop.ExcBadParam, Minor: 1}
	}
	topic, key, seq, prio, published, err := giop.ParseEventContextView(data)
	if err != nil {
		return pubsub.Event{}, &Exception{ID: giop.ExcBadParam, Minor: 2}
	}
	ev := pubsub.Event{Payload: req.Body, Priority: req.Priority, Seq: seq, Published: sim.Time(published)}
	if prio != 0 {
		ev.Priority = prio
	}
	n.mu.Lock()
	// string(b) == s compiles to a comparison, not a conversion.
	if string(topic) != n.topic {
		n.topic = string(topic)
	}
	if string(key) != n.key {
		n.key = string(key)
	}
	ev.Topic, ev.Key = n.topic, n.key
	n.mu.Unlock()
	return ev, nil
}

// ConsumerHandler adapts an event callback into the wire Handler a
// consumer registers under its ConsumerKey: it reconstructs the Event
// from the push invocation and hands it over. A push without a
// well-formed event context is refused with BAD_PARAM, as the channel
// host refuses such a publish, and fn never sees it.
//
// Ordering: the channel pushes one subscriber's events in publish order
// over one connection, but pushes are oneway, so a lane with several
// workers dispatches them concurrently and fn may see them reordered. A
// consumer that needs per-subscriber order must serve the pushes'
// priority from a lane with exactly one worker.
//
// The event's Payload is req.Body and fn may keep it past Dispatch's
// return, so the handler calls req.Retain.
func ConsumerHandler(fn func(ev pubsub.Event)) HandlerFunc {
	var names eventNames
	return func(req *Request) ([]byte, error) {
		if req.Operation != "push" {
			return nil, &Exception{ID: giop.ExcBadOperation, Minor: 2}
		}
		ev, exc := names.event(req)
		if exc != nil {
			return nil, exc
		}
		req.Retain()
		fn(ev)
		return nil, nil
	}
}

// PublishRemote publishes one event through a channel host reachable
// via inv at key: a two-way invocation so admission refusals surface
// (ErrOverload for a saturated topic).
func PublishRemote(inv Invoker, key string, ev pubsub.Event, opts CallOptions) error {
	if opts.Priority == 0 {
		opts.Priority = ev.Priority
	}
	opts.contexts = append(opts.contexts,
		giop.EventContext(ev.Topic, ev.Key, 0, ev.Priority, int64(ev.Published), cdr.LittleEndian))
	_, err := inv.Invoke(key, "publish", ev.Payload, opts)
	return err
}

// SubscribeRemote registers a subscription with a channel host.
func SubscribeRemote(inv Invoker, key string, sp SubscribeSpec, opts CallOptions) error {
	_, err := inv.Invoke(key, "subscribe", EncodeSubscribe(sp, cdr.LittleEndian), opts)
	return err
}

// UnsubscribeRemote removes a subscription by name.
func UnsubscribeRemote(inv Invoker, key, name string, opts CallOptions) error {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutOctet(byte(cdr.LittleEndian))
	e.PutString(name)
	_, err := inv.Invoke(key, "unsubscribe", e.Bytes(), opts)
	return err
}

// FetchChannelStats retrieves the host channel's snapshot.
func FetchChannelStats(inv Invoker, key string, opts CallOptions) (pubsub.ChannelSnapshot, error) {
	var snap pubsub.ChannelSnapshot
	body, err := inv.Invoke(key, "stats", nil, opts)
	if err != nil {
		return snap, err
	}
	err = json.Unmarshal(body, &snap)
	return snap, err
}
