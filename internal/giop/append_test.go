package giop

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cdr"
)

// The reference marshaller: Request and Reply built the way Marshal
// built them before AppendTo — one encoder from offset 0, the header and
// the body an octet at a time, padding by loops, every context's data
// from an encoder of its own. It uses only the cdr puts that package
// holds to a reference of its own. The tests below hold Marshal,
// AppendTo and AppendQoS to its bytes.

func refHeader(order cdr.ByteOrder, t MsgType) *cdr.Encoder {
	e := cdr.NewEncoder(order)
	for _, b := range []byte{'G', 'I', 'O', 'P', VersionMajor, VersionMinor, byte(order), byte(t)} {
		e.PutOctet(b)
	}
	e.PutULong(0) // size placeholder
	return e
}

func refTail(e *cdr.Encoder, order cdr.ByteOrder, ctxs []ServiceContext, body []byte) []byte {
	e.PutULong(uint32(len(ctxs)))
	for _, c := range ctxs {
		e.PutULong(c.ID)
		e.PutOctetSeq(c.Data)
	}
	if len(body) > 0 {
		for e.Len()%8 != 0 {
			e.PutOctet(0)
		}
		for _, b := range body {
			e.PutOctet(b)
		}
	}
	buf := e.Bytes()
	order.Order().PutUint32(buf[8:12], uint32(len(buf)-HeaderSize))
	return buf
}

func refRequest(r *Request, order cdr.ByteOrder) []byte {
	e := refHeader(order, MsgRequest)
	e.PutULong(r.RequestID)
	if r.ResponseExpected {
		e.PutOctet(0x03)
	} else {
		e.PutOctet(0x00)
	}
	e.PutOctet(0)
	e.PutOctet(0)
	e.PutOctet(0)
	e.PutShort(0)
	e.PutOctetSeq(r.ObjectKey)
	e.PutString(r.Operation)
	return refTail(e, order, r.ServiceContexts, r.Body)
}

func refReply(r *Reply, order cdr.ByteOrder) []byte {
	e := refHeader(order, MsgReply)
	e.PutULong(r.RequestID)
	e.PutULong(uint32(r.Status))
	return refTail(e, order, r.ServiceContexts, r.Body)
}

// refContextData is the old shape of a 64-bit QoS context's data: order
// octet, a loop of padding to 8, then the values.
func refContextData(order cdr.ByteOrder, vals []uint64, tail *uint32) []byte {
	e := cdr.NewEncoder(order)
	e.PutOctet(byte(order))
	for e.Len()%8 != 0 {
		e.PutOctet(0)
	}
	for _, v := range vals {
		e.PutULongLong(v)
	}
	if tail != nil {
		e.PutULong(*tail)
	}
	return e.Bytes()
}

// refQoSContexts is what the wire client used to build per call: one
// ServiceContext per field q has, in the client's order.
func refQoSContexts(q RequestQoS, order cdr.ByteOrder) []ServiceContext {
	var out []ServiceContext
	if q.HasPriority {
		e := cdr.NewEncoder(order)
		e.PutOctet(byte(order))
		e.PutShort(q.Priority)
		out = append(out, ServiceContext{ServiceRTCorbaPriority, e.Bytes()})
	}
	if q.HasSentAt {
		out = append(out, ServiceContext{ServiceInvocationTimestamp, refContextData(order, []uint64{uint64(q.SentAt)}, nil)})
	}
	if q.Deadline != 0 {
		out = append(out, ServiceContext{ServiceDeadline, refContextData(order, []uint64{uint64(q.Deadline)}, nil)})
	}
	if q.TraceID != 0 && q.SpanID != 0 {
		out = append(out, ServiceContext{ServiceTraceContext, refContextData(order, []uint64{q.TraceID, q.SpanID}, nil)})
	}
	if q.HasFT {
		out = append(out, ServiceContext{ServiceFTRequest, refContextData(order, []uint64{q.FT.Group, q.FT.Client}, &q.FT.Retention)})
	}
	return out
}

// randomBody draws a body of 0 B to 200 KiB: mostly small, every eighth
// one large, so the alignment cases get the volume and the bulk copy
// its sizes.
func randomBody(rng *rand.Rand) []byte {
	n := rng.Intn(80)
	switch rng.Intn(8) {
	case 0:
		n = 0
	case 1:
		n = rng.Intn(200<<10 + 1)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func randomQoS(rng *rand.Rand) RequestQoS {
	var q RequestQoS
	if rng.Intn(2) == 0 {
		q.Priority, q.HasPriority = int16(rng.Intn(1<<15)), true
	}
	if rng.Intn(2) == 0 {
		q.SentAt, q.HasSentAt = rng.Int63(), true
	}
	if rng.Intn(2) == 0 {
		q.Deadline = rng.Int63() + 1
	}
	if rng.Intn(2) == 0 {
		q.TraceID, q.SpanID = rng.Uint64()|1, rng.Uint64()|1
	}
	if rng.Intn(2) == 0 {
		q.FT, q.HasFT = FTKey{rng.Uint64(), rng.Uint64(), rng.Uint32()}, true
	}
	return q
}

// randomContexts draws 0–5 contexts from the constructors (FT, trace and
// event included) and opaque data of awkward lengths.
func randomContexts(rng *rand.Rand, order cdr.ByteOrder) []ServiceContext {
	n := rng.Intn(6)
	if n == 0 {
		return nil
	}
	out := make([]ServiceContext, n)
	for i := range out {
		switch rng.Intn(7) {
		case 0:
			out[i] = PriorityContext(int16(rng.Intn(1<<15)), order)
		case 1:
			out[i] = TimestampContext(rng.Int63(), order)
		case 2:
			out[i] = DeadlineContext(rng.Int63(), order)
		case 3:
			out[i] = TraceContext(rng.Uint64(), rng.Uint64(), order)
		case 4:
			out[i] = FTRequestContext(rng.Uint64(), rng.Uint64(), rng.Uint32(), order)
		case 5:
			out[i] = EventContext("camera/front"[:rng.Intn(13)], "cam0"[:rng.Intn(5)], rng.Uint64(), int16(rng.Intn(1<<15)), rng.Int63(), order)
		case 6:
			data := make([]byte, rng.Intn(23))
			rng.Read(data)
			out[i] = ServiceContext{ID: rng.Uint32(), Data: data}
		}
	}
	return out
}

func randomRequest(rng *rand.Rand, order cdr.ByteOrder) *Request {
	key := make([]byte, rng.Intn(20))
	rng.Read(key)
	return &Request{
		RequestID:        rng.Uint32(),
		ResponseExpected: rng.Intn(2) == 0,
		ObjectKey:        key,
		Operation:        "operation_name"[:rng.Intn(15)],
		ServiceContexts:  randomContexts(rng, order),
		Body:             randomBody(rng),
	}
}

// checkAppend holds one message to want: Marshal in a slice of exactly
// its size, AppendTo into a reused buffer full of stale bytes, AppendTo
// behind a prefix (the message still laid out from its own first byte).
func checkAppend(t *testing.T, what string, m Message, order cdr.ByteOrder, want []byte, dirty *[]byte) {
	t.Helper()
	got := m.Marshal(order)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Marshal differs from the reference (%d vs %d bytes)\n got %x\nwant %x",
			what, len(got), len(want), head(got), head(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: Marshal sized its buffer %d for a %d-byte message", what, cap(got), len(got))
	}
	for i := range *dirty {
		(*dirty)[i] = 0xFF
	}
	*dirty = m.AppendTo((*dirty)[:0], order)
	if !bytes.Equal(*dirty, want) {
		t.Fatalf("%s: AppendTo into a dirty buffer differs from the reference\n got %x\nwant %x", what, head(*dirty), head(want))
	}
	*dirty = (*dirty)[:cap(*dirty)]
	prefix := []byte{0xFF, 0xFF, 0xFF}
	behind := m.AppendTo(prefix, order)
	if !bytes.Equal(behind[:3], prefix) || !bytes.Equal(behind[3:], want) {
		t.Fatalf("%s: AppendTo behind a 3-byte prefix differs from the reference\n got %x\nwant %x", what, head(behind[3:]), head(want))
	}
}

func head(b []byte) []byte {
	if len(b) > 160 {
		return b[:160]
	}
	return b
}

// normalize maps empty slices to nil so DeepEqual compares content.
func normalize(ctxs []ServiceContext, key, body *[]byte) []ServiceContext {
	for _, p := range []*[]byte{key, body} {
		if p != nil && len(*p) == 0 {
			*p = nil
		}
	}
	if len(ctxs) == 0 {
		return nil
	}
	out := make([]ServiceContext, len(ctxs))
	for i, c := range ctxs {
		out[i] = ServiceContext{ID: c.ID, Data: append([]byte(nil), c.Data...)}
	}
	return out
}

// TestAppendToMatchesReference: for seeded random Requests and Replies
// in both byte orders, the bytes are the reference marshaller's, and
// they decode back to the message.
func TestAppendToMatchesReference(t *testing.T) {
	dirty := make([]byte, 1<<10)
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		order := cdr.ByteOrder(seed & 1)

		req := randomRequest(rng, order)
		want := refRequest(req, order)
		checkAppend(t, "request", req, order, want, &dirty)
		msg, err := Decode(want)
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		got := *msg.(*Request)
		got.ServiceContexts = normalize(got.ServiceContexts, &got.ObjectKey, &got.Body)
		exp := *req
		exp.ServiceContexts = normalize(exp.ServiceContexts, &exp.ObjectKey, &exp.Body)
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("seed %d: request does not survive the round trip", seed)
		}

		rep := &Reply{RequestID: rng.Uint32(), Status: ReplyStatus(rng.Intn(4)),
			ServiceContexts: randomContexts(rng, order), Body: randomBody(rng)}
		want = refReply(rep, order)
		checkAppend(t, "reply", rep, order, want, &dirty)
		if msg, err = Decode(want); err != nil {
			t.Fatalf("seed %d: Decode reply: %v", seed, err)
		}
		gotR := *msg.(*Reply)
		gotR.ServiceContexts = normalize(gotR.ServiceContexts, nil, &gotR.Body)
		expR := *rep
		expR.ServiceContexts = normalize(expR.ServiceContexts, nil, &expR.Body)
		if !reflect.DeepEqual(gotR, expR) {
			t.Fatalf("seed %d: reply does not survive the round trip", seed)
		}
	}
}

// TestAppendToSimpleMessages: the five bodiless or fixed-size messages
// keep their bytes too.
func TestAppendToSimpleMessages(t *testing.T) {
	dirty := make([]byte, 64)
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		fixed := func(t MsgType, fill func(e *cdr.Encoder)) []byte {
			e := refHeader(order, t)
			fill(e)
			buf := e.Bytes()
			order.Order().PutUint32(buf[8:12], uint32(len(buf)-HeaderSize))
			return buf
		}
		checkAppend(t, "locate request", &LocateRequest{RequestID: 3, ObjectKey: []byte("a/b")}, order,
			fixed(MsgLocateRequest, func(e *cdr.Encoder) { e.PutULong(3); e.PutShort(0); e.PutOctetSeq([]byte("a/b")) }), &dirty)
		checkAppend(t, "locate reply", &LocateReply{RequestID: 3, Status: LocateObjectHere}, order,
			fixed(MsgLocateReply, func(e *cdr.Encoder) { e.PutULong(3); e.PutULong(1) }), &dirty)
		checkAppend(t, "cancel", &CancelRequest{RequestID: 4}, order,
			fixed(MsgCancelRequest, func(e *cdr.Encoder) { e.PutULong(4) }), &dirty)
		checkAppend(t, "close", &CloseConnection{}, order, fixed(MsgCloseConnection, func(*cdr.Encoder) {}), &dirty)
		checkAppend(t, "message error", &MessageError{}, order, fixed(MsgMessageError, func(*cdr.Encoder) {}), &dirty)
	}
}

// TestAppendQoSMatchesContextConstructors: contexts written in place
// from a RequestQoS are, byte for byte, the contexts the constructors
// build, ahead of the request's own — and parse back to the same value.
func TestAppendQoSMatchesContextConstructors(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xFF}, 1<<10)
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		order := cdr.ByteOrder(seed & 1)
		req := randomRequest(rng, order)
		q := randomQoS(rng)

		ref := *req
		ref.ServiceContexts = append(refQoSContexts(q, order), req.ServiceContexts...)
		want := refRequest(&ref, order)

		got := req.AppendQoS(nil, order, &q)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: AppendQoS(%+v) differs from the reference\n got %x\nwant %x", seed, q, head(got), head(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("seed %d: AppendQoS sized its buffer %d for a %d-byte message", seed, cap(got), len(got))
		}
		for i := range dirty {
			dirty[i] = 0xFF
		}
		dirty = req.AppendQoS(dirty[:0], order, &q)
		if !bytes.Equal(dirty, want) {
			t.Fatalf("seed %d: AppendQoS into a dirty buffer differs from the reference", seed)
		}
		dirty = dirty[:cap(dirty)]

		// The constructors kept their bytes as well.
		if byCtor := (&ref).Marshal(order); !bytes.Equal(byCtor, want) {
			t.Fatalf("seed %d: a context constructor changed its bytes", seed)
		}
		msg, err := Decode(got)
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		decoded := msg.(*Request).ServiceContexts
		if back := ParseRequestQoS(decoded[:len(decoded)-len(req.ServiceContexts)]); back != q {
			t.Fatalf("seed %d: ParseRequestQoS = %+v, encoded %+v", seed, back, q)
		}
	}
}

func constructorContexts(order cdr.ByteOrder) []ServiceContext {
	return []ServiceContext{
		PriorityContext(16000, order),
		TimestampContext(1, order),
		DeadlineContext(2, order),
	}
}

// allocBytes is the mean heap bytes one call of f allocates.
func allocBytes(runs int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestAppendToAllocBudget pins the gain without a clock: encoding into a
// warm buffer allocates nothing whatever the body size, and Marshal
// allocates the message once.
func TestAppendToAllocBudget(t *testing.T) {
	body := make([]byte, 64<<10)
	req := &Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("bench/echo"), Operation: "echo",
		ServiceContexts: constructorContexts(cdr.BigEndian), Body: body}
	rep := &Reply{RequestID: 7, Body: body}
	q := &RequestQoS{Priority: 16000, HasPriority: true, SentAt: 1, HasSentAt: true, Deadline: 2, TraceID: 3, SpanID: 4,
		FT: FTKey{1, 2, 3}, HasFT: true}
	buf := make([]byte, 0, len(body)+512)

	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Request.AppendTo into a warm buffer", 0, func() { buf = req.AppendTo(buf[:0], cdr.BigEndian) }},
		{"Request.AppendQoS into a warm buffer", 0, func() { buf = req.AppendQoS(buf[:0], cdr.LittleEndian, q) }},
		{"Reply.AppendTo into a warm buffer", 0, func() { buf = rep.AppendTo(buf[:0], cdr.BigEndian) }},
		{"Request.Marshal", 1, func() { sinkBytes = req.Marshal(cdr.BigEndian) }},
		{"Reply.Marshal", 1, func() { sinkBytes = rep.Marshal(cdr.BigEndian) }},
	} {
		if got := testing.AllocsPerRun(50, tc.f); got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
	// One allocation of the message's size class, not a doubling chain.
	if got := allocBytes(50, func() { sinkBytes = req.Marshal(cdr.BigEndian) }); got > 80<<10 {
		t.Errorf("Request.Marshal of a 64 KiB body allocates %.0f B, want one buffer (< 80 KiB)", got)
	}
}

// Sinks keep results alive; a typed one so storing costs no allocation.
var (
	sinkBytes []byte
	sink      Message
)

// TestDecodeAllocBudget: decoding a 64 KiB request costs the Request,
// its context slice and the operation string — nothing body-sized.
func TestDecodeAllocBudget(t *testing.T) {
	frame := (&Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("bench/echo"), Operation: "echo",
		ServiceContexts: constructorContexts(cdr.BigEndian), Body: make([]byte, 64<<10)}).Marshal(cdr.BigEndian)
	decode := func() {
		m, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		sink = m
	}
	if got := testing.AllocsPerRun(50, decode); got > 4 {
		t.Errorf("Decode of a 64 KiB request: %v allocs, want <= 4", got)
	}
	if got := allocBytes(50, decode); got >= 512 {
		t.Errorf("Decode of a 64 KiB request allocates %.0f B, want < 512", got)
	}
}

// TestDecodeByValueAllocBudget: DecodeRequest into a caller's Request
// allocates only the operation name, and not even that when it equals the
// name passed as the previous one; DecodeReply allocates nothing. (The
// frames carry no service contexts: a request with some still allocates
// their slice, as Decode does.)
func TestDecodeByValueAllocBudget(t *testing.T) {
	echo := (&Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("app/echo"), Operation: "echo",
		Body: make([]byte, 64)}).Marshal(cdr.BigEndian)
	push := (&Request{RequestID: 8, ObjectKey: []byte("consumer/a"), Operation: "push",
		Body: make([]byte, 64)}).Marshal(cdr.LittleEndian)
	reply := (&Reply{RequestID: 7, Body: make([]byte, 64)}).Marshal(cdr.BigEndian)
	var req Request
	var rep Reply
	next := echo
	decode := func() {
		if err := DecodeRequest(next, &req, req.Operation); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(100, decode); got != 0 {
		t.Errorf("DecodeRequest repeating the last operation: %v allocs, want 0", got)
	}
	alternate := func() {
		if next = echo; req.Operation == "echo" {
			next = push
		}
		decode()
	}
	if got := testing.AllocsPerRun(100, alternate); got != 1 {
		t.Errorf("DecodeRequest of a new operation: %v allocs, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := DecodeReply(reply, &rep); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeReply: %v allocs, want 0", got)
	}
	if rep.RequestID != 7 || len(rep.Body) != 64 {
		t.Errorf("DecodeReply gave id %d and a %d-byte body", rep.RequestID, len(rep.Body))
	}
}

// TestDecodeAliasesFrame: body, object key and context data are the
// frame's own bytes; the views inside the frame have their capacity
// clipped so an append cannot run into the field behind them.
func TestDecodeAliasesFrame(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		frame := validRequest(order)
		msg, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		req := msg.(*Request)
		inFrame := func(b []byte) bool {
			at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
			return at >= lo && at+uintptr(len(b)) <= lo+uintptr(len(frame))
		}
		if !inFrame(req.Body) || !inFrame(req.ObjectKey) || !inFrame(req.ServiceContexts[1].Data) {
			t.Fatalf("%v: Decode copied a field out of the frame", order)
		}
		if &req.Body[len(req.Body)-1] != &frame[len(frame)-1] {
			t.Errorf("%v: the body is not the tail of the frame", order)
		}
		for _, view := range [][]byte{req.ObjectKey, req.ServiceContexts[0].Data, req.ServiceContexts[1].Data} {
			if cap(view) != len(view) {
				t.Errorf("%v: a %d-byte view has capacity %d into the fields behind it", order, len(view), cap(view))
			}
		}
		before := append([]byte(nil), frame...)
		req.ObjectKey = append(req.ObjectKey, "/suffix"...)
		req.ServiceContexts[0].Data = append(req.ServiceContexts[0].Data, 0xFF)
		if !bytes.Equal(frame, before) {
			t.Errorf("%v: appending to a decoded field wrote into the frame", order)
		}
	}
}
