package giop

import "repro/internal/cdr"

// FTKey identifies one logical invocation on an object group — the FT
// request context's (group, client, retention) triple. Every retry of the
// invocation, on any connection and under any GIOP request id, carries
// the same key, which is what servers deduplicate on.
type FTKey struct {
	Group, Client uint64
	Retention     uint32
}

// RequestQoS is the standard QoS service contexts of one request: what
// ParseRequestQoS extracts in a single pass, and what Request.AppendQoS
// encodes straight into a message. Parsed, a context that is absent or
// malformed leaves its fields zero; encoded, Priority is written when
// HasPriority, SentAt when HasSentAt, FT when HasFT, Deadline when
// nonzero, and the trace context when both ids are nonzero.
type RequestQoS struct {
	// Priority is the RT-CORBA priority (0x10), valid when HasPriority.
	Priority    int16
	HasPriority bool
	// SentAt is the client's send instant (0x11) in its clock's
	// nanoseconds, valid when HasSentAt: a virtual clock's zero is an
	// instant like any other.
	SentAt    int64
	HasSentAt bool
	// TraceID and SpanID are the caller's span (0x12).
	TraceID, SpanID uint64
	// FT is the at-most-once key (0x13), valid when HasFT.
	FT    FTKey
	HasFT bool
	// Deadline is the absolute expiry instant (0x14) in the client
	// clock's nanoseconds.
	Deadline int64
}

// ParseRequestQoS extracts the five QoS contexts from ctxs. As with
// FindContext, only the first context of each id counts.
func ParseRequestQoS(ctxs []ServiceContext) RequestQoS {
	var q RequestQoS
	var seen uint32
	for i := range ctxs {
		c := &ctxs[i]
		bit := c.ID - ServiceRTCorbaPriority
		if bit > ServiceDeadline-ServiceRTCorbaPriority || seen&(1<<bit) != 0 {
			continue
		}
		seen |= 1 << bit
		switch c.ID {
		case ServiceRTCorbaPriority:
			if p, err := ParsePriorityContext(c.Data); err == nil {
				q.Priority, q.HasPriority = p, true
			}
		case ServiceInvocationTimestamp:
			if t, err := ParseTimestampContext(c.Data); err == nil {
				q.SentAt, q.HasSentAt = t, true
			}
		case ServiceTraceContext:
			q.TraceID, q.SpanID, _ = ParseTraceContext(c.Data)
		case ServiceFTRequest:
			if g, cl, r, err := ParseFTRequestContext(c.Data); err == nil {
				q.FT, q.HasFT = FTKey{Group: g, Client: cl, Retention: r}, true
			}
		case ServiceDeadline:
			q.Deadline, _ = ParseDeadlineContext(c.Data)
		}
	}
	return q
}

// The QoS contexts' data have fixed layouts — the order octet, padding
// to the first value's boundary, the values — aligned from the data's
// own first byte. Each put*Data writes one on an encoder whose origin is
// there: the standalone constructors (PriorityContext, ...) use a fresh
// encoder, RequestQoS.put re-bases the message's.
const (
	priorityDataLen = 1 + 1 + 2     // order, pad, short
	instantDataLen  = 1 + 7 + 8     // order, pad, long long (timestamp, deadline)
	traceDataLen    = 1 + 7 + 8 + 8 // order, pad, trace id, span id
	ftDataLen       = 1 + 7 + 8 + 8 + 4
)

func putPriorityData(e *cdr.Encoder, priority int16) {
	e.PutOctet(byte(e.Order()))
	e.PutShort(priority)
}

func putInstantData(e *cdr.Encoder, nanos int64) {
	e.PutOctet(byte(e.Order()))
	e.PutLongLong(nanos)
}

func putTraceData(e *cdr.Encoder, traceID, spanID uint64) {
	e.PutOctet(byte(e.Order()))
	e.PutULongLong(traceID)
	e.PutULongLong(spanID)
}

func putFTData(e *cdr.Encoder, k FTKey) {
	e.PutOctet(byte(e.Order()))
	e.PutULongLong(k.Group)
	e.PutULongLong(k.Client)
	e.PutULong(k.Retention)
}

func (q *RequestQoS) hasTrace() bool { return q.TraceID != 0 && q.SpanID != 0 }

// layout returns how many contexts put will write and, given the offset
// n the encoder has reached, the offset it will reach after them. A nil
// q has none.
func (q *RequestQoS) layout(n int) (count, end int) {
	if q == nil {
		return 0, n
	}
	add := func(present bool, dataLen int) {
		if present {
			count++
			n = alignUp(n, 4) + 4 + 4 + dataLen
		}
	}
	add(q.HasPriority, priorityDataLen)
	add(q.HasSentAt, instantDataLen)
	add(q.Deadline != 0, instantDataLen)
	add(q.hasTrace(), traceDataLen)
	add(q.HasFT, ftDataLen)
	return count, n
}

// put writes q's contexts in place, in layout's order.
func (q *RequestQoS) put(e *cdr.Encoder) {
	if q == nil {
		return
	}
	if q.HasPriority {
		origin := beginContext(e, ServiceRTCorbaPriority, priorityDataLen)
		putPriorityData(e, q.Priority)
		e.SetOrigin(origin)
	}
	if q.HasSentAt {
		origin := beginContext(e, ServiceInvocationTimestamp, instantDataLen)
		putInstantData(e, q.SentAt)
		e.SetOrigin(origin)
	}
	if q.Deadline != 0 {
		origin := beginContext(e, ServiceDeadline, instantDataLen)
		putInstantData(e, q.Deadline)
		e.SetOrigin(origin)
	}
	if q.hasTrace() {
		origin := beginContext(e, ServiceTraceContext, traceDataLen)
		putTraceData(e, q.TraceID, q.SpanID)
		e.SetOrigin(origin)
	}
	if q.HasFT {
		origin := beginContext(e, ServiceFTRequest, ftDataLen)
		putFTData(e, q.FT)
		e.SetOrigin(origin)
	}
}

// beginContext writes a context's id and data length and moves the
// encoder's alignment origin to the data's first byte, returning the
// origin to restore once the data is written.
func beginContext(e *cdr.Encoder, id uint32, dataLen int) (origin int) {
	e.PutULong(id)
	e.PutULong(uint32(dataLen))
	return e.SetOrigin(e.Len())
}
