package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// JSONL is a sink that writes one JSON object per ended span, in end
// order. Field order follows the DTO struct definitions, and attribute
// slices preserve insertion order, so output is deterministic.
//
// A JSONL is safe to share between tracers running on different
// goroutines (e.g. parallel scenario sweeps exporting to one file):
// each span is written as a single atomic line, so lines never
// interleave, and every tracer's spans appear in its own end order.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONL creates a JSONL exporter writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Err returns the first write/encode error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// AttrJSON is the wire form of one span or event attribute.
type AttrJSON struct {
	K string `json:"k"`
	V string `json:"v"`
}

// EventJSON is the wire form of one timestamped span event.
type EventJSON struct {
	T     int64      `json:"t_ns"`
	Name  string     `json:"name"`
	Attrs []AttrJSON `json:"attrs,omitempty"`
}

// SpanJSON is the machine-readable form of one ended span, shared by
// the JSONL exporter and the trace scenario's JSON document so trace
// shapes can be diffed across runs. Field order follows the struct
// definition and attribute slices preserve insertion order, so
// marshalling is deterministic.
type SpanJSON struct {
	Trace  uint64      `json:"trace"`
	Span   uint64      `json:"span"`
	Parent uint64      `json:"parent,omitempty"`
	Name   string      `json:"name"`
	Layer  string      `json:"layer"`
	Start  int64       `json:"start_ns"`
	End    int64       `json:"end_ns"`
	Attrs  []AttrJSON  `json:"attrs,omitempty"`
	Events []EventJSON `json:"events,omitempty"`
}

func toJSONAttrs(attrs []Attr) []AttrJSON {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]AttrJSON, len(attrs))
	for i, a := range attrs {
		out[i] = AttrJSON{K: a.Key, V: a.Val}
	}
	return out
}

// SpanToJSON converts a span to its wire form.
func SpanToJSON(s *Span) SpanJSON {
	dto := SpanJSON{
		Trace:  uint64(s.TraceID),
		Span:   uint64(s.ID),
		Parent: uint64(s.Parent),
		Name:   s.Name,
		Layer:  s.Layer,
		Start:  int64(s.Start),
		End:    int64(s.End),
		Attrs:  toJSONAttrs(s.Attrs),
	}
	for _, ev := range s.Events {
		dto.Events = append(dto.Events, EventJSON{T: int64(ev.T), Name: ev.Name, Attrs: toJSONAttrs(ev.Attrs)})
	}
	return dto
}

// OnEnd implements Sink.
func (j *JSONL) OnEnd(s *Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	buf, err := json.Marshal(SpanToJSON(s))
	if err != nil {
		j.err = err
		return
	}
	buf = append(buf, '\n')
	if _, err := j.w.Write(buf); err != nil {
		j.err = err
	}
}
