// Package events implements a real-time event channel in the style of
// TAO's Real-Time Event Service (one of the network-based common
// services in the paper's Figure 1): suppliers push typed events into a
// channel, which dispatches them to subscribed consumers through an
// RT-CORBA thread pool so that high-priority event traffic is never
// queued behind low-priority traffic.
//
// Consumers may be local (a handler running on a pool thread) or remote
// (a CORBA object the channel pushes to with oneway invocations). A
// channel can itself be exported as a CORBA servant so remote suppliers
// can push through the ORB.
package events

import (
	"fmt"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/orb"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Type tags an event for subscription filtering.
type Type uint32

// Event is one published occurrence.
type Event struct {
	// Type drives consumer filtering.
	Type Type
	// Priority is the CORBA priority the dispatch runs at.
	Priority rtcorba.Priority
	// Data is the payload.
	Data []byte
	// Published is stamped by the channel at push time.
	Published sim.Time
}

// Handler consumes events on a channel pool thread.
type Handler func(t *rtos.Thread, ev Event)

// dispatchCost is the CPU charged per consumer dispatch.
const dispatchCost = 5 * time.Microsecond

// Channel is an event channel instance on one host.
type Channel struct {
	host *rtos.Host
	mm   *rtcorba.MappingManager
	pool *rtcorba.ThreadPool
	subs []*Subscription

	pushed     int64
	dispatched int64
	refused    int64
}

// Subscription is one consumer registration.
type Subscription struct {
	ch       *Channel
	types    map[Type]bool // nil = all types
	priority rtcorba.Priority
	handler  Handler
	active   bool

	// Delivered counts events handed to this consumer.
	Delivered int64
}

// NewChannel creates a channel on host using the given priority mapping.
// Its dispatch pool has a best-effort and an expedited lane (priority 0
// and 16000) of one thread each.
func NewChannel(host *rtos.Host, mm *rtcorba.MappingManager) (*Channel, error) {
	pool, err := rtcorba.NewThreadPool(host, mm,
		rtcorba.LaneConfig{Priority: 0, Threads: 1},
		rtcorba.LaneConfig{Priority: 16000, Threads: 1})
	if err != nil {
		return nil, err
	}
	return &Channel{host: host, mm: mm, pool: pool}, nil
}

// Subscribe registers a handler for the given event types (nil or empty
// = every type) at the given dispatch priority.
func (c *Channel) Subscribe(types []Type, prio rtcorba.Priority, h Handler) *Subscription {
	sub := &Subscription{ch: c, priority: prio, handler: h, active: true}
	if len(types) > 0 {
		sub.types = make(map[Type]bool, len(types))
		for _, t := range types {
			sub.types[t] = true
		}
	}
	c.subs = append(c.subs, sub)
	return sub
}

// SubscribeRemote registers a remote consumer: matching events are
// pushed to ref's "push" operation as oneway invocations through o.
func (c *Channel) SubscribeRemote(types []Type, prio rtcorba.Priority, o *orb.ORB, ref *orb.ObjectRef) *Subscription {
	return c.Subscribe(types, prio, func(t *rtos.Thread, ev Event) {
		body := MarshalEvent(ev)
		_, _ = o.InvokeOpt(t, ref, "push", body, orb.InvokeOptions{Oneway: true, Priority: ev.Priority})
	})
}

// Cancel deactivates the subscription.
func (s *Subscription) Cancel() { s.active = false }

// Push publishes an event: every matching subscription gets a dispatch
// on the channel's pool at the event's priority. Push itself costs the
// supplier nothing beyond the call (the channel's threads do the work).
func (c *Channel) Push(ev Event) {
	ev.Published = c.host.Kernel().Now()
	c.pushed++
	for _, sub := range c.subs {
		if !sub.active {
			continue
		}
		if sub.types != nil && !sub.types[ev.Type] {
			continue
		}
		sub := sub
		ev := ev
		prio := ev.Priority
		if sub.priority > 0 {
			// A subscription's priority floor protects urgent consumers
			// of low-priority events.
			if sub.priority > prio {
				prio = sub.priority
			}
		}
		ok := c.pool.Dispatch(rtcorba.Work{
			Priority: prio,
			Fn: func(t *rtos.Thread) {
				t.Compute(dispatchCost)
				sub.handler(t, ev)
				sub.Delivered++
				c.dispatched++
			},
		})
		if !ok {
			c.refused++
		}
	}
}

// Pushed returns the number of events published.
func (c *Channel) Pushed() int64 { return c.pushed }

// Dispatched returns the number of consumer dispatches completed.
func (c *Channel) Dispatched() int64 { return c.dispatched }

// Refused returns dispatches rejected by bounded lane queues.
func (c *Channel) Refused() int64 { return c.refused }

// MarshalEvent encodes an event for transport through the ORB.
func MarshalEvent(ev Event) []byte {
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutULong(uint32(ev.Type))
	e.PutShort(int16(ev.Priority))
	e.PutLongLong(int64(ev.Published))
	e.PutOctetSeq(ev.Data)
	return e.Bytes()
}

// UnmarshalEvent decodes an event marshalled by MarshalEvent.
func UnmarshalEvent(body []byte) (Event, error) {
	d := cdr.NewDecoder(body, cdr.LittleEndian)
	var ev Event
	typ, err := d.ULong()
	if err != nil {
		return ev, fmt.Errorf("events: decoding type: %w", err)
	}
	prio, err := d.Short()
	if err != nil {
		return ev, fmt.Errorf("events: decoding priority: %w", err)
	}
	pub, err := d.LongLong()
	if err != nil {
		return ev, fmt.Errorf("events: decoding timestamp: %w", err)
	}
	data, err := d.OctetSeq()
	if err != nil {
		return ev, fmt.Errorf("events: decoding data: %w", err)
	}
	ev.Type = Type(typ)
	ev.Priority = rtcorba.Priority(prio)
	ev.Published = sim.Time(pub)
	ev.Data = data
	return ev, nil
}

// servant exposes a channel to remote suppliers.
type servant struct {
	ch *Channel
}

// Dispatch implements orb.Servant: operation "push" with a marshalled
// event body publishes into the channel.
func (s *servant) Dispatch(req *orb.ServerRequest) ([]byte, error) {
	if req.Op != "push" {
		return nil, &orb.SystemException{ID: giop.ExcBadOperation}
	}
	ev, err := UnmarshalEvent(req.Body)
	if err != nil {
		return nil, &orb.SystemException{ID: giop.ExcBadParam}
	}
	s.ch.Push(ev)
	return nil, nil
}

// Activate exports the channel through o under POA "events" with the
// given object id, so remote suppliers can push through the ORB.
func Activate(o *orb.ORB, id string, ch *Channel) (*orb.ObjectRef, error) {
	poa, err := o.CreatePOA("events", orb.POAConfig{ServerPriority: 24000})
	if err != nil {
		return nil, err
	}
	return poa.Activate(id, &servant{ch: ch})
}

// PushRemote publishes an event to a remote channel reference from
// thread t (oneway, at the event's priority).
func PushRemote(o *orb.ORB, t *rtos.Thread, ref *orb.ObjectRef, ev Event) error {
	_, err := o.InvokeOpt(t, ref, "push", MarshalEvent(ev), orb.InvokeOptions{Oneway: true, Priority: ev.Priority})
	return err
}
