// Package giop implements the General Inter-ORB Protocol (version 1.2)
// message formats used between the ORBs in this repository: Request,
// Reply, CancelRequest, CloseConnection and MessageError, with service
// contexts (including the RT-CORBA priority context that propagates a
// CORBA priority end to end, as in the paper's Figure 2). Messages are
// real bytes produced and parsed with the cdr package.
package giop

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/cdr"
)

// Protocol constants.
var magic = [4]byte{'G', 'I', 'O', 'P'}

const (
	// VersionMajor and VersionMinor identify GIOP 1.2.
	VersionMajor = 1
	VersionMinor = 2
	// HeaderSize is the fixed GIOP message header length.
	HeaderSize = 12
)

// MsgType is the GIOP message type octet.
type MsgType byte

// GIOP message types.
const (
	MsgRequest         MsgType = 0
	MsgReply           MsgType = 1
	MsgCancelRequest   MsgType = 2
	MsgLocateRequest   MsgType = 3
	MsgLocateReply     MsgType = 4
	MsgCloseConnection MsgType = 5
	MsgMessageError    MsgType = 6
)

func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgLocateRequest:
		return "LocateRequest"
	case MsgLocateReply:
		return "LocateReply"
	case MsgCloseConnection:
		return "CloseConnection"
	case MsgMessageError:
		return "MessageError"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// ReplyStatus is the GIOP reply status.
type ReplyStatus uint32

// Reply statuses.
const (
	StatusNoException     ReplyStatus = 0
	StatusUserException   ReplyStatus = 1
	StatusSystemException ReplyStatus = 2
	StatusLocationForward ReplyStatus = 3
)

func (s ReplyStatus) String() string {
	switch s {
	case StatusNoException:
		return "NO_EXCEPTION"
	case StatusUserException:
		return "USER_EXCEPTION"
	case StatusSystemException:
		return "SYSTEM_EXCEPTION"
	case StatusLocationForward:
		return "LOCATION_FORWARD"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// Service context identifiers.
const (
	// ServiceRTCorbaPriority carries the invocation's CORBA priority
	// (0..32767) so every hop can map it to native resources — the key
	// RT-CORBA mechanism for coordinated end-to-end behaviour.
	ServiceRTCorbaPriority uint32 = 0x0000_0010
	// ServiceInvocationTimestamp carries the client's send time, letting
	// the experiments measure true end-to-end latency.
	ServiceInvocationTimestamp uint32 = 0x0000_0011
	// ServiceTraceContext carries the invocation's trace and span IDs so
	// a span tree can follow one request across process boundaries, the
	// same way ServiceRTCorbaPriority propagates the CORBA priority.
	ServiceTraceContext uint32 = 0x0000_0012
	// ServiceFTRequest is the FT-CORBA request service context: it tags a
	// logical request with its object-group id, the issuing client's id
	// and a per-client retention id. The retention id stays the same when
	// the client retries the request against another group member, which
	// is what lets servers suppress duplicate executions after a
	// failover (at-most-once semantics across replicas).
	ServiceFTRequest uint32 = 0x0000_0013
	// ServiceDeadline carries the invocation's end-to-end deadline — the
	// absolute expiry instant (simulation-clock nanoseconds) derived from
	// an RT-CORBA RELATIVE_RT_TIMEOUT policy at the client. Every layer
	// that buffers the request (lane queue, servant dispatch) checks the
	// remaining budget and sheds work that can no longer meet it.
	ServiceDeadline uint32 = 0x0000_0014
	// ServiceEventContext rides on pub/sub push invocations: it carries
	// the event's channel-assigned sequence number, publication
	// timestamp, priority, topic and coalescing key, so a consumer can
	// reconstruct the full Event from a GIOP "push" whose body is just
	// the opaque payload bytes.
	ServiceEventContext uint32 = 0x0000_0015
)

// ServiceContext is one tagged service-context entry.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// Decoding errors.
var (
	// ErrBadMagic means the buffer does not start with "GIOP".
	ErrBadMagic = errors.New("giop: bad magic")
	// ErrBadVersion means an unsupported protocol version.
	ErrBadVersion = errors.New("giop: unsupported version")
	// ErrBadMessage means a structurally invalid message.
	ErrBadMessage = errors.New("giop: malformed message")
)

// Message is any decoded GIOP message.
type Message interface {
	Type() MsgType
	// AppendTo appends the complete wire message in the given order to
	// dst and returns the extended slice. The message is laid out as if
	// it stood alone (alignment counts from its own first byte), dst is
	// grown at most once, to the message's exact size, and the body is
	// copied in one piece; into a buffer with room it allocates nothing.
	// Bytes already in dst's spare capacity are overwritten, never read.
	AppendTo(dst []byte, order cdr.ByteOrder) []byte
	// Marshal is AppendTo(nil, order): the message in a slice of its own,
	// of exactly its size.
	Marshal(order cdr.ByteOrder) []byte
}

// Request is a GIOP 1.2 Request message (KeyAddr addressing only, which
// is all the ORB in this repository uses).
type Request struct {
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	ServiceContexts  []ServiceContext
	Body             []byte // CDR-encoded arguments, aligned at 8
}

// Type implements Message.
func (r *Request) Type() MsgType { return MsgRequest }

// Marshal implements Message.
func (r *Request) Marshal(order cdr.ByteOrder) []byte { return r.AppendTo(nil, order) }

// AppendTo implements Message.
func (r *Request) AppendTo(dst []byte, order cdr.ByteOrder) []byte {
	return r.AppendQoS(dst, order, nil)
}

// AppendQoS is AppendTo with the contexts of q (when non-nil) encoded
// straight into the message ahead of r.ServiceContexts, in the order
// the wire client has always sent them: priority, timestamp, deadline,
// trace, FT. The bytes equal those of a request whose ServiceContexts
// start with PriorityContext, TimestampContext, DeadlineContext,
// TraceContext and FTRequestContext values for the fields q has.
func (r *Request) AppendQoS(dst []byte, order cdr.ByteOrder, q *RequestQoS) []byte {
	// Header, request id, response flags + reserved[3], addressing
	// disposition; then the two length-prefixed fields.
	n := HeaderSize + 4 + 4 + 2
	n = alignUp(n, 4) + 4 + len(r.ObjectKey)
	n = alignUp(n, 4) + 4 + len(r.Operation) + 1
	nq, n := q.layout(alignUp(n, 4) + 4)
	n = bodyEnd(contextsEnd(n, r.ServiceContexts), r.Body)

	e := newHeader(dst, n, order, MsgRequest)
	e.PutULong(r.RequestID)
	if r.ResponseExpected {
		e.PutOctet(0x03) // SyncScope: with target
	} else {
		e.PutOctet(0x00)
	}
	e.PutOctet(0) // reserved[3]
	e.PutOctet(0)
	e.PutOctet(0)
	e.PutShort(0) // addressing disposition: KeyAddr
	e.PutOctetSeq(r.ObjectKey)
	e.PutString(r.Operation)
	e.PutULong(uint32(nq + len(r.ServiceContexts)))
	q.put(&e)
	putContexts(&e, r.ServiceContexts)
	putBody(&e, r.Body)
	return finish(&e, len(dst))
}

// Reply is a GIOP 1.2 Reply message.
type Reply struct {
	RequestID       uint32
	Status          ReplyStatus
	ServiceContexts []ServiceContext
	Body            []byte
}

// Type implements Message.
func (r *Reply) Type() MsgType { return MsgReply }

// Marshal implements Message.
func (r *Reply) Marshal(order cdr.ByteOrder) []byte { return r.AppendTo(nil, order) }

// AppendTo implements Message.
func (r *Reply) AppendTo(dst []byte, order cdr.ByteOrder) []byte {
	n := HeaderSize + 4 + 4 + 4 // request id, status, context count
	n = bodyEnd(contextsEnd(n, r.ServiceContexts), r.Body)

	e := newHeader(dst, n, order, MsgReply)
	e.PutULong(r.RequestID)
	e.PutULong(uint32(r.Status))
	e.PutULong(uint32(len(r.ServiceContexts)))
	putContexts(&e, r.ServiceContexts)
	putBody(&e, r.Body)
	return finish(&e, len(dst))
}

// LocateStatus is the LocateReply status.
type LocateStatus uint32

// Locate statuses.
const (
	LocateUnknownObject LocateStatus = 0
	LocateObjectHere    LocateStatus = 1
	LocateObjectForward LocateStatus = 2
)

func (s LocateStatus) String() string {
	switch s {
	case LocateUnknownObject:
		return "UNKNOWN_OBJECT"
	case LocateObjectHere:
		return "OBJECT_HERE"
	case LocateObjectForward:
		return "OBJECT_FORWARD"
	default:
		return fmt.Sprintf("LocateStatus(%d)", uint32(s))
	}
}

// LocateRequest asks whether the server can dispatch to an object key
// without actually invoking it.
type LocateRequest struct {
	RequestID uint32
	ObjectKey []byte
}

// Type implements Message.
func (l *LocateRequest) Type() MsgType { return MsgLocateRequest }

// Marshal implements Message.
func (l *LocateRequest) Marshal(order cdr.ByteOrder) []byte { return l.AppendTo(nil, order) }

// AppendTo implements Message.
func (l *LocateRequest) AppendTo(dst []byte, order cdr.ByteOrder) []byte {
	e := newHeader(dst, HeaderSize+4+4+4+len(l.ObjectKey), order, MsgLocateRequest)
	e.PutULong(l.RequestID)
	e.PutShort(0) // KeyAddr
	e.PutOctetSeq(l.ObjectKey)
	return finish(&e, len(dst))
}

// LocateReply answers a LocateRequest.
type LocateReply struct {
	RequestID uint32
	Status    LocateStatus
}

// Type implements Message.
func (l *LocateReply) Type() MsgType { return MsgLocateReply }

// Marshal implements Message.
func (l *LocateReply) Marshal(order cdr.ByteOrder) []byte { return l.AppendTo(nil, order) }

// AppendTo implements Message.
func (l *LocateReply) AppendTo(dst []byte, order cdr.ByteOrder) []byte {
	e := newHeader(dst, HeaderSize+4+4, order, MsgLocateReply)
	e.PutULong(l.RequestID)
	e.PutULong(uint32(l.Status))
	return finish(&e, len(dst))
}

// CancelRequest asks the server to abandon a pending request.
type CancelRequest struct {
	RequestID uint32
}

// Type implements Message.
func (c *CancelRequest) Type() MsgType { return MsgCancelRequest }

// Marshal implements Message.
func (c *CancelRequest) Marshal(order cdr.ByteOrder) []byte { return c.AppendTo(nil, order) }

// AppendTo implements Message.
func (c *CancelRequest) AppendTo(dst []byte, order cdr.ByteOrder) []byte {
	e := newHeader(dst, HeaderSize+4, order, MsgCancelRequest)
	e.PutULong(c.RequestID)
	return finish(&e, len(dst))
}

// CloseConnection is the orderly shutdown message.
type CloseConnection struct{}

// Type implements Message.
func (*CloseConnection) Type() MsgType { return MsgCloseConnection }

// Marshal implements Message.
func (c *CloseConnection) Marshal(order cdr.ByteOrder) []byte { return c.AppendTo(nil, order) }

// AppendTo implements Message.
func (*CloseConnection) AppendTo(dst []byte, order cdr.ByteOrder) []byte {
	e := newHeader(dst, HeaderSize, order, MsgCloseConnection)
	return finish(&e, len(dst))
}

// MessageError reports a protocol error to the peer.
type MessageError struct{}

// Type implements Message.
func (*MessageError) Type() MsgType { return MsgMessageError }

// Marshal implements Message.
func (m *MessageError) Marshal(order cdr.ByteOrder) []byte { return m.AppendTo(nil, order) }

// AppendTo implements Message.
func (*MessageError) AppendTo(dst []byte, order cdr.ByteOrder) []byte {
	e := newHeader(dst, HeaderSize, order, MsgMessageError)
	return finish(&e, len(dst))
}

// alignUp rounds n up to a multiple of a, a power of two.
func alignUp(n, a int) int { return (n + a - 1) &^ (a - 1) }

// contextsEnd and bodyEnd compute a message's size ahead of encoding it:
// given the offset the encoder has reached, the offset it will reach
// after putContexts (the count already written) or putBody.
func contextsEnd(n int, ctxs []ServiceContext) int {
	for i := range ctxs {
		n = alignUp(n, 4) + 4 + 4 + len(ctxs[i].Data)
	}
	return n
}

func bodyEnd(n int, body []byte) int {
	if len(body) == 0 {
		return n
	}
	return alignUp(n, 8) + len(body)
}

// newHeader starts a message of size bytes (header included) at the end
// of dst, growing dst once if it lacks the room. finish fills in the
// header's size field.
func newHeader(dst []byte, size int, order cdr.ByteOrder, t MsgType) cdr.Encoder {
	e := cdr.AppendEncoder(dst, order)
	e.Grow(size)
	e.PutOctets(magic[:])
	e.PutOctet(VersionMajor)
	e.PutOctet(VersionMinor)
	if order == cdr.LittleEndian {
		e.PutOctet(1)
	} else {
		e.PutOctet(0)
	}
	e.PutOctet(byte(t))
	e.PutULong(0) // size placeholder
	return e
}

// putContexts appends service contexts; the caller has written the count.
func putContexts(e *cdr.Encoder, ctxs []ServiceContext) {
	for i := range ctxs {
		e.PutULong(ctxs[i].ID)
		e.PutOctetSeq(ctxs[i].Data)
	}
}

// putBody aligns to the GIOP 1.2 8-byte body boundary and appends raw
// CDR argument bytes.
func putBody(e *cdr.Encoder, body []byte) {
	if len(body) == 0 {
		return
	}
	e.Align(8)
	e.PutOctets(body)
}

// finish patches the size field (bytes following the header) of the
// message that starts at offset start of the encoder's buffer.
func finish(e *cdr.Encoder, start int) []byte {
	buf := e.Bytes()
	size := uint32(len(buf) - start - HeaderSize)
	e.Order().Order().PutUint32(buf[start+8:start+12], size)
	return buf
}

// Decode parses one complete GIOP message in place: a Request's or
// Reply's Body, object keys and service-context Data are views of buf,
// not copies (strings are copies). The message therefore owns buf from
// here on — the caller must not write to buf or read another frame into
// it while the message, or anything taken from it, is in use.
func Decode(buf []byte) (Message, error) {
	order, t, err := checkHeader(buf)
	if err != nil {
		return nil, err
	}
	// Decode with header bytes in place so alignment matches encoding.
	d := cdr.NewDecoder(buf, order)
	_ = d.Skip(HeaderSize) // cannot fail: checkHeader saw a whole header
	switch t {
	case MsgRequest:
		r := &Request{}
		if err := decodeRequest(d, buf, r, ""); err != nil {
			return nil, err
		}
		return r, nil
	case MsgReply:
		r := &Reply{}
		if err := decodeReply(d, buf, r); err != nil {
			return nil, err
		}
		return r, nil
	case MsgCancelRequest:
		id, err := d.ULong()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
		}
		return &CancelRequest{RequestID: id}, nil
	case MsgLocateRequest:
		lr := &LocateRequest{}
		var err error
		if lr.RequestID, err = d.ULong(); err != nil {
			return nil, fmt.Errorf("%w: locate id: %v", ErrBadMessage, err)
		}
		disp, err := d.Short()
		if err != nil || disp != 0 {
			return nil, fmt.Errorf("%w: locate disposition %d (%v)", ErrBadMessage, disp, err)
		}
		if lr.ObjectKey, err = d.OctetSeqView(); err != nil {
			return nil, fmt.Errorf("%w: locate key: %v", ErrBadMessage, err)
		}
		return lr, nil
	case MsgLocateReply:
		lr := &LocateReply{}
		var err error
		if lr.RequestID, err = d.ULong(); err != nil {
			return nil, fmt.Errorf("%w: locate reply id: %v", ErrBadMessage, err)
		}
		status, err := d.ULong()
		if err != nil || status > uint32(LocateObjectForward) {
			return nil, fmt.Errorf("%w: locate status %d (%v)", ErrBadMessage, status, err)
		}
		lr.Status = LocateStatus(status)
		return lr, nil
	case MsgCloseConnection:
		return &CloseConnection{}, nil
	case MsgMessageError:
		return &MessageError{}, nil
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, buf[7])
	}
}

// DecodeRequest is Decode for a frame that holds a Request, decoded into
// *r instead of a message of its own: the same checks, the same errors,
// the same views of buf. A reader that decodes frame after frame into one
// Request on its stack allocates nothing for the message. When the
// operation name equals lastOp, r.Operation is lastOp itself, so a
// connection that passes its previous request's name decodes a repeated
// one without copying it. A frame of another type is an error.
func DecodeRequest(buf []byte, r *Request, lastOp string) error {
	d, err := open(buf, MsgRequest)
	if err != nil {
		return err
	}
	return decodeRequest(&d, buf, r, lastOp)
}

// DecodeReply is DecodeRequest for a Reply: Decode's checks and views,
// decoded into *r.
func DecodeReply(buf []byte, r *Reply) error {
	d, err := open(buf, MsgReply)
	if err != nil {
		return err
	}
	return decodeReply(&d, buf, r)
}

// open checks that buf is a whole message of type want and returns a
// decoder positioned after its header.
func open(buf []byte, want MsgType) (cdr.Decoder, error) {
	order, t, err := checkHeader(buf)
	if err != nil {
		return cdr.Decoder{}, err
	}
	if t != want {
		return cdr.Decoder{}, fmt.Errorf("%w: %v, want %v", ErrBadMessage, t, want)
	}
	d := cdr.NewDecoder(buf, order)
	_ = d.Skip(HeaderSize)
	return *d, nil
}

// checkHeader validates a whole message's header — magic, version, the
// size field against the buffer — and returns its byte order and type.
func checkHeader(buf []byte) (cdr.ByteOrder, MsgType, error) {
	if len(buf) < HeaderSize {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrBadMessage, len(buf))
	}
	if !bytes.Equal(buf[0:4], magic[:]) {
		return 0, 0, ErrBadMagic
	}
	if buf[4] != VersionMajor || buf[5] != VersionMinor {
		return 0, 0, fmt.Errorf("%w: %d.%d", ErrBadVersion, buf[4], buf[5])
	}
	order := headerOrder(buf)
	size := order.Order().Uint32(buf[8:12])
	if int(size) != len(buf)-HeaderSize {
		return 0, 0, fmt.Errorf("%w: size field %d, actual %d", ErrBadMessage, size, len(buf)-HeaderSize)
	}
	return order, MsgType(buf[7]), nil
}

// decodeRequest and decodeReply fill every field of *r from the message
// in buf, which checkHeader has accepted; d is positioned after its
// header.
func decodeRequest(d *cdr.Decoder, buf []byte, r *Request, lastOp string) error {
	var err error
	if r.RequestID, err = d.ULong(); err != nil {
		return fmt.Errorf("%w: request id: %v", ErrBadMessage, err)
	}
	flags, err := d.Octet()
	if err != nil {
		return fmt.Errorf("%w: response flags: %v", ErrBadMessage, err)
	}
	r.ResponseExpected = flags != 0
	if err := d.Skip(3); err != nil {
		return fmt.Errorf("%w: reserved: %v", ErrBadMessage, err)
	}
	disp, err := d.Short()
	if err != nil || disp != 0 {
		return fmt.Errorf("%w: addressing disposition %d (%v)", ErrBadMessage, disp, err)
	}
	if r.ObjectKey, err = d.OctetSeqView(); err != nil {
		return fmt.Errorf("%w: object key: %v", ErrBadMessage, err)
	}
	op, err := d.StringView()
	if err != nil {
		return fmt.Errorf("%w: operation: %v", ErrBadMessage, err)
	}
	r.Operation = lastOp
	if string(op) != lastOp {
		r.Operation = string(op)
	}
	if r.ServiceContexts, err = getContexts(d); err != nil {
		return err
	}
	r.Body = extractBody(d, buf)
	return nil
}

func decodeReply(d *cdr.Decoder, buf []byte, r *Reply) error {
	var err error
	if r.RequestID, err = d.ULong(); err != nil {
		return fmt.Errorf("%w: request id: %v", ErrBadMessage, err)
	}
	status, err := d.ULong()
	if err != nil {
		return fmt.Errorf("%w: status: %v", ErrBadMessage, err)
	}
	if status > uint32(StatusLocationForward) {
		return fmt.Errorf("%w: reply status %d", ErrBadMessage, status)
	}
	r.Status = ReplyStatus(status)
	if r.ServiceContexts, err = getContexts(d); err != nil {
		return err
	}
	r.Body = extractBody(d, buf)
	return nil
}

func getContexts(d *cdr.Decoder) ([]ServiceContext, error) {
	n, err := d.ULong()
	if err != nil {
		return nil, fmt.Errorf("%w: context count: %v", ErrBadMessage, err)
	}
	if n > 1024 {
		return nil, fmt.Errorf("%w: %d service contexts", ErrBadMessage, n)
	}
	out := make([]ServiceContext, 0, n)
	for i := uint32(0); i < n; i++ {
		var c ServiceContext
		if c.ID, err = d.ULong(); err != nil {
			return nil, fmt.Errorf("%w: context id: %v", ErrBadMessage, err)
		}
		if c.Data, err = d.OctetSeqView(); err != nil {
			return nil, fmt.Errorf("%w: context data: %v", ErrBadMessage, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// extractBody returns the 8-aligned remainder of the message, in place.
func extractBody(d *cdr.Decoder, buf []byte) []byte {
	pos := alignUp(d.Pos(), 8)
	if pos >= len(buf) {
		return nil
	}
	return buf[pos:]
}

// FindContext returns the first service context with the given id.
func FindContext(ctxs []ServiceContext, id uint32) ([]byte, bool) {
	for _, c := range ctxs {
		if c.ID == id {
			return c.Data, true
		}
	}
	return nil, false
}

// PriorityContext builds the RTCorbaPriority service context for a CORBA
// priority value.
func PriorityContext(priority int16, order cdr.ByteOrder) ServiceContext {
	e := cdr.AppendEncoder(make([]byte, 0, priorityDataLen), order)
	putPriorityData(&e, priority)
	return ServiceContext{ID: ServiceRTCorbaPriority, Data: e.Bytes()}
}

// ParsePriorityContext extracts the CORBA priority from context data.
func ParsePriorityContext(data []byte) (int16, error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("%w: empty priority context", ErrBadMessage)
	}
	order := cdr.ByteOrder(data[0])
	d := cdr.NewDecoder(data, order)
	if _, err := d.Octet(); err != nil {
		return 0, err
	}
	v, err := d.Short()
	if err != nil {
		return 0, fmt.Errorf("%w: priority context: %v", ErrBadMessage, err)
	}
	return v, nil
}

// TimestampContext builds the invocation-timestamp service context.
func TimestampContext(nanos int64, order cdr.ByteOrder) ServiceContext {
	e := cdr.AppendEncoder(make([]byte, 0, instantDataLen), order)
	putInstantData(&e, nanos)
	return ServiceContext{ID: ServiceInvocationTimestamp, Data: e.Bytes()}
}

// TraceContext builds the trace-propagation service context: the CDR
// encoding of an (order octet, pad, trace id, span id) record.
func TraceContext(traceID, spanID uint64, order cdr.ByteOrder) ServiceContext {
	e := cdr.AppendEncoder(make([]byte, 0, traceDataLen), order)
	putTraceData(&e, traceID, spanID)
	return ServiceContext{ID: ServiceTraceContext, Data: e.Bytes()}
}

// ParseTraceContext extracts the trace and span IDs from context data.
func ParseTraceContext(data []byte) (traceID, spanID uint64, err error) {
	if len(data) < 1 {
		return 0, 0, fmt.Errorf("%w: empty trace context", ErrBadMessage)
	}
	order := cdr.ByteOrder(data[0])
	d := cdr.NewDecoder(data, order)
	if _, err := d.Octet(); err != nil {
		return 0, 0, err
	}
	if traceID, err = d.ULongLong(); err != nil {
		return 0, 0, fmt.Errorf("%w: trace id: %v", ErrBadMessage, err)
	}
	if spanID, err = d.ULongLong(); err != nil {
		return 0, 0, fmt.Errorf("%w: span id: %v", ErrBadMessage, err)
	}
	return traceID, spanID, nil
}

// FTRequestContext builds the FT request service context identifying a
// logical invocation on an object group: the group id, the issuing
// client's id, and the client's retention id for this request. Retries
// of the same logical request (against the same or another group
// member) carry the identical context.
func FTRequestContext(group, client uint64, retention uint32, order cdr.ByteOrder) ServiceContext {
	e := cdr.AppendEncoder(make([]byte, 0, ftDataLen), order)
	putFTData(&e, FTKey{Group: group, Client: client, Retention: retention})
	return ServiceContext{ID: ServiceFTRequest, Data: e.Bytes()}
}

// ParseFTRequestContext extracts the group, client and retention ids
// from FT request context data.
func ParseFTRequestContext(data []byte) (group, client uint64, retention uint32, err error) {
	if len(data) < 1 {
		return 0, 0, 0, fmt.Errorf("%w: empty FT request context", ErrBadMessage)
	}
	order := cdr.ByteOrder(data[0])
	d := cdr.NewDecoder(data, order)
	if _, err := d.Octet(); err != nil {
		return 0, 0, 0, err
	}
	if group, err = d.ULongLong(); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: FT group id: %v", ErrBadMessage, err)
	}
	if client, err = d.ULongLong(); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: FT client id: %v", ErrBadMessage, err)
	}
	if retention, err = d.ULong(); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: FT retention id: %v", ErrBadMessage, err)
	}
	return group, client, retention, nil
}

// DeadlineContext builds the end-to-end deadline service context: the
// absolute expiry instant in simulation-clock nanoseconds.
func DeadlineContext(expiry int64, order cdr.ByteOrder) ServiceContext {
	e := cdr.AppendEncoder(make([]byte, 0, instantDataLen), order)
	putInstantData(&e, expiry)
	return ServiceContext{ID: ServiceDeadline, Data: e.Bytes()}
}

// ParseDeadlineContext extracts the absolute expiry instant from deadline
// context data.
func ParseDeadlineContext(data []byte) (int64, error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("%w: empty deadline context", ErrBadMessage)
	}
	order := cdr.ByteOrder(data[0])
	d := cdr.NewDecoder(data, order)
	if _, err := d.Octet(); err != nil {
		return 0, err
	}
	v, err := d.LongLong()
	if err != nil {
		return 0, fmt.Errorf("%w: deadline context: %v", ErrBadMessage, err)
	}
	return v, nil
}

// EventContext builds the pub/sub event service context: the CDR
// encoding of (order octet, pad, seq, published, priority, topic, key).
// Published is the event's publication instant in the channel clock's
// nanoseconds; Key is the coalescing key ("" for none).
func EventContext(topic, key string, seq uint64, priority int16, published int64, order cdr.ByteOrder) ServiceContext {
	return ServiceContext{ID: ServiceEventContext, Data: AppendEventContext(nil, topic, key, seq, priority, published, order)}
}

// AppendEventContext appends EventContext's data to dst and returns the
// extended slice: a caller that passes a reused buffer's buf[:0] encodes
// each event without allocating once the buffer has grown.
func AppendEventContext(dst []byte, topic, key string, seq uint64, priority int16, published int64, order cdr.ByteOrder) []byte {
	e := cdr.AppendEncoder(dst, order)
	// 26 bytes up to the priority, then two strings, each a 4-aligned
	// length, the bytes and a NUL.
	e.Grow(26 + 2 + 5 + len(topic) + 3 + 5 + len(key))
	e.PutOctet(byte(order))
	e.PutULongLong(seq) // 8-aligned: seven bytes of padding first
	e.PutLongLong(published)
	e.PutShort(priority)
	e.PutString(topic)
	e.PutString(key)
	return e.Bytes()
}

// ParseEventContext extracts the pub/sub event descriptor from event
// context data.
func ParseEventContext(data []byte) (topic, key string, seq uint64, priority int16, published int64, err error) {
	t, k, seq, priority, published, err := ParseEventContextView(data)
	if err != nil {
		return "", "", 0, 0, 0, err
	}
	return string(t), string(k), seq, priority, published, nil
}

// ParseEventContextView is ParseEventContext with the topic and key
// returned as views of data, valid for as long as data is: a consumer that
// sees the same names event after event can compare them with the strings
// it already holds instead of allocating new ones.
func ParseEventContextView(data []byte) (topic, key []byte, seq uint64, priority int16, published int64, err error) {
	if len(data) < 1 {
		return nil, nil, 0, 0, 0, fmt.Errorf("%w: empty event context", ErrBadMessage)
	}
	order := cdr.ByteOrder(data[0])
	d := cdr.NewDecoder(data, order)
	if _, err = d.Octet(); err != nil {
		return nil, nil, 0, 0, 0, err
	}
	if seq, err = d.ULongLong(); err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("%w: event seq: %v", ErrBadMessage, err)
	}
	if published, err = d.LongLong(); err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("%w: event published: %v", ErrBadMessage, err)
	}
	if priority, err = d.Short(); err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("%w: event priority: %v", ErrBadMessage, err)
	}
	if topic, err = d.StringView(); err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("%w: event topic: %v", ErrBadMessage, err)
	}
	if key, err = d.StringView(); err != nil {
		return nil, nil, 0, 0, 0, fmt.Errorf("%w: event key: %v", ErrBadMessage, err)
	}
	return topic, key, seq, priority, published, nil
}

// ParseTimestampContext extracts the send time in nanoseconds.
func ParseTimestampContext(data []byte) (int64, error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("%w: empty timestamp context", ErrBadMessage)
	}
	order := cdr.ByteOrder(data[0])
	d := cdr.NewDecoder(data, order)
	if _, err := d.Octet(); err != nil {
		return 0, err
	}
	v, err := d.LongLong()
	if err != nil {
		return 0, fmt.Errorf("%w: timestamp context: %v", ErrBadMessage, err)
	}
	return v, nil
}
