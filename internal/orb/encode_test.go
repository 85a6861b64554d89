package orb

import (
	"bytes"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/sim"
)

// TestEncodeRequestMatchesContextList: encodeRequest writes the same
// bytes as a request carrying its priority, timestamp and deadline as
// ServiceContexts values ahead of the interceptors' and the FT context,
// for plain, deadline, traced and FT requests, at time zero (where
// AppendQoS would leave the timestamp out) and later, in both byte
// orders. Every frame size, and so every message's simulated cost,
// depends on it.
func TestEncodeRequestMatchesContextList(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		trace := giop.TraceContext(7, 9, order)
		ft := giop.FTRequestContext(3, 11, 42, order)
		cases := []struct {
			name     string
			deadline sim.Time
			own      []giop.ServiceContext
		}{
			{"plain", 0, nil},
			{"deadline", 5_000_000, nil},
			{"traced", 0, []giop.ServiceContext{trace}},
			{"ft", 0, []giop.ServiceContext{ft}},
			{"traced ft with deadline", 5_000_000, []giop.ServiceContext{trace, ft}},
		}
		for _, c := range cases {
			for _, now := range []sim.Time{0, 1_234_567} {
				want := []giop.ServiceContext{
					giop.PriorityContext(12000, order),
					giop.TimestampContext(int64(now), order),
				}
				if c.deadline != 0 {
					want = append(want, giop.DeadlineContext(int64(c.deadline), order))
				}
				want = append(want, c.own...)
				req := func(ctxs []giop.ServiceContext) *giop.Request {
					return &giop.Request{RequestID: 5, ResponseExpected: true, ObjectKey: []byte("app/echo"),
						Operation: "op", ServiceContexts: ctxs, Body: []byte{1, 2, 3}}
				}
				old := req(want).AppendTo(nil, order)
				got := encodeRequest(nil, req(c.own), 12000, now, c.deadline, order)
				if !bytes.Equal(got, old) {
					t.Errorf("%s at %v (order %d): encodeRequest\n%x\nwant\n%x", c.name, now, order, got, old)
				}
			}
		}
	}
}
