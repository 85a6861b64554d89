package monitor

import (
	"time"

	"repro/internal/events"
	"repro/internal/quo"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// Plane bundles the monitoring machinery for one scenario: the bus
// merging every layer's occurrences into a unified timeline, and the
// sampler turning the telemetry registry into time series. Middleware
// layers publish their own fates once handed the bus (netsim's and orb's
// SetBus, pubsub.ChannelConfig.Bus); WireContract and WireTracer bridge
// the two sources that are not layers. Everything runs on the simulation
// clock, so a seeded scenario yields a byte-identical dashboard on every
// run.
type Plane struct {
	K        *sim.Kernel
	Reg      *telemetry.Registry
	Bus      *events.Bus
	Timeline *events.Timeline
	Sampler  *Sampler
}

// NewPlane creates a monitoring plane over reg sampling every period
// (DefaultEvery if <= 0), with a bus and an all-kinds timeline.
func NewPlane(k *sim.Kernel, reg *telemetry.Registry, every time.Duration) *Plane {
	bus := events.NewBus(k)
	return &Plane{
		K:        k,
		Reg:      reg,
		Bus:      bus,
		Timeline: events.NewTimeline(bus),
		Sampler:  NewSampler(k, reg, bus, every),
	}
}

// Start begins sampling.
func (p *Plane) Start() { p.Sampler.Start() }

// Stop halts sampling.
func (p *Plane) Stop() { p.Sampler.Stop() }

// WireContract publishes a QuO contract's region transitions as
// KindRegion records sourced "contract/<name>". It composes with any
// other OnTransition callbacks the scenario registers.
func (p *Plane) WireContract(c *quo.Contract) {
	c.OnTransition(func(from, to string, _ quo.Values) {
		p.Bus.Publish(events.KindRegion, "contract/"+c.Name(),
			events.F("from", from),
			events.F("to", to))
	})
}

// spanSink bridges notable span ends onto the bus: FT failover spans
// become KindFailover records, spans carrying an error attribute become
// KindSpanEnd records. Routine successful spans stay off the timeline —
// they belong in traces and series, not the event log.
type spanSink struct{ p *Plane }

// OnEnd implements trace.Sink.
func (ss spanSink) OnEnd(s *trace.Span) {
	if s.Layer == trace.LayerFT && s.Name == "failover" {
		fields := []events.Field{events.F("dur", s.Duration().String())}
		fields = append(fields, attrFields(s, "from", "to")...)
		ss.p.Bus.PublishAt(s.End, events.KindFailover, "ft", fields...)
		return
	}
	if errAttr := attrValue(s, "error"); errAttr != "" {
		ss.p.Bus.PublishAt(s.End, events.KindSpanEnd, s.Layer+"/"+s.Name,
			events.F("error", errAttr),
			events.F("dur", s.Duration().String()))
	}
}

func attrValue(s *trace.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func attrFields(s *trace.Span, keys ...string) []events.Field {
	var out []events.Field
	for _, k := range keys {
		if v := attrValue(s, k); v != "" {
			out = append(out, events.F(k, v))
		}
	}
	return out
}

// WireTracer attaches the span-end bridge to tr.
func (p *Plane) WireTracer(tr *trace.Tracer) {
	tr.AddSink(spanSink{p: p})
}
