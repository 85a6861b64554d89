package giop

import (
	"testing"

	"repro/internal/cdr"
)

// TestParseRequestQoS pins the single-pass parse against the per-context
// helpers it replaces: every QoS context is extracted whatever the order
// and byte order, unrelated contexts are skipped, and — as with
// FindContext — only the first context of an id counts, so a malformed
// first one reads as absent even when a good one follows.
func TestParseRequestQoS(t *testing.T) {
	all := RequestQoS{
		Priority: 16000, HasPriority: true,
		SentAt: 111, HasSentAt: true,
		TraceID: 7, SpanID: 8,
		FT: FTKey{Group: 3, Client: 99, Retention: 5}, HasFT: true,
		Deadline: 222,
	}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		ctxs := []ServiceContext{
			EventContext("t", "k", 1, 2, 3, order),
			DeadlineContext(222, order),
			FTRequestContext(3, 99, 5, order),
			{ID: 0x0fff_0000, Data: []byte{1}},
			TraceContext(7, 8, order),
			TimestampContext(111, order),
			PriorityContext(16000, order),
		}
		if got := ParseRequestQoS(ctxs); got != all {
			t.Errorf("order %v: parsed %+v, want %+v", order, got, all)
		}
	}

	if got := ParseRequestQoS(nil); got != (RequestQoS{}) {
		t.Errorf("no contexts parsed to %+v, want the zero value", got)
	}

	shadowed := []ServiceContext{
		{ID: ServiceRTCorbaPriority},      // malformed: empty
		PriorityContext(5, cdr.BigEndian), // ignored: not the first
		FTRequestContext(1, 2, 3, cdr.BigEndian),
		FTRequestContext(4, 5, 6, cdr.BigEndian),  // ignored: not the first
		{ID: ServiceDeadline, Data: []byte{0, 1}}, // malformed: truncated
	}
	want := RequestQoS{FT: FTKey{Group: 1, Client: 2, Retention: 3}, HasFT: true}
	if got := ParseRequestQoS(shadowed); got != want {
		t.Errorf("shadowed contexts parsed to %+v, want %+v", got, want)
	}
}

// TestSystemExceptionTaxonomy pins the minor-code taxonomy both planes
// classify replies with, and the body round trip.
func TestSystemExceptionTaxonomy(t *testing.T) {
	cases := []struct {
		id    string
		minor uint32
		class ExceptionClass
	}{
		{ExcObjectNotExist, 3, ClassNotExist},
		{ExcTransient, 1, ClassTransient},
		{ExcTransient, MinorShed, ClassOverload},
		{ExcTransient, 7, ClassOverload},
		{ExcTimeout, 1, ClassDeadline},
		{ExcTimeout, 2, ClassDeadline},
		{ExcBadParam, 4, ClassOther},
		{ExcUnknown, 0, ClassOther},
	}
	for _, tc := range cases {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			se := DecodeSystemException(EncodeSystemException(tc.id, tc.minor, order), order)
			if se.ID != tc.id || se.Minor != tc.minor || se.Class() != tc.class {
				t.Errorf("%s minor %d (%v): decoded %+v class %v, want class %v",
					tc.id, tc.minor, order, se, se.Class(), tc.class)
			}
		}
	}
	if se := DecodeSystemException([]byte{0xff}, cdr.BigEndian); se.ID != ExcUnknown || se.Minor != 0 {
		t.Errorf("undecodable body read as %+v, want UNKNOWN minor 0", se)
	}
}
