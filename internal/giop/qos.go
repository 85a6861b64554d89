package giop

// FTKey identifies one logical invocation on an object group — the FT
// request context's (group, client, retention) triple. Every retry of the
// invocation, on any connection and under any GIOP request id, carries
// the same key, which is what servers deduplicate on.
type FTKey struct {
	Group, Client uint64
	Retention     uint32
}

// RequestQoS is the standard QoS service contexts of one request, parsed
// in a single pass. A context that is absent or malformed leaves its
// fields zero.
type RequestQoS struct {
	// Priority is the RT-CORBA priority (0x10), valid when HasPriority.
	Priority    int16
	HasPriority bool
	// SentAt is the client's send instant (0x11) in its clock's
	// nanoseconds.
	SentAt int64
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
			q.SentAt, _ = ParseTimestampContext(c.Data)
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
