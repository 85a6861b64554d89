// Package cdr implements CORBA Common Data Representation marshalling:
// the aligned, endian-tagged binary encoding GIOP messages carry. Unlike
// the simulated substrates in this repository, CDR is implemented for
// real — encoders produce actual wire bytes and decoders parse them, with
// the natural-boundary alignment rules of the CORBA specification
// (2-byte types on 2-byte boundaries, 4 on 4, 8 on 8).
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ByteOrder selects the encoding endianness. GIOP marks the byte order
// per message, so both are supported.
type ByteOrder byte

const (
	// BigEndian is the canonical network order.
	BigEndian ByteOrder = 0
	// LittleEndian is the order most of the paper's x86 testbed used.
	LittleEndian ByteOrder = 1
)

func (o ByteOrder) order() binary.ByteOrder {
	if o == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// Order returns the corresponding encoding/binary byte order, for callers
// that need to patch already-encoded bytes (the GIOP size field).
func (o ByteOrder) Order() binary.ByteOrder { return o.order() }

func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// Errors returned by the decoder.
var (
	// ErrTruncated means the buffer ended inside a value.
	ErrTruncated = errors.New("cdr: truncated buffer")
	// ErrInvalid means a structurally invalid encoding (bad bool octet,
	// unterminated string, negative length).
	ErrInvalid = errors.New("cdr: invalid encoding")
)

// Encoder builds a CDR stream by appending to a byte slice. The zero
// value encodes big-endian into a fresh buffer; NewEncoder chooses the
// byte order, AppendEncoder also the destination. Alignment is measured
// from the stream's origin — where the encoder started appending — not
// from the start of the slice, so a stream appended behind other bytes
// is laid out as it would be alone.
type Encoder struct {
	buf    []byte
	origin int
	order  ByteOrder
}

// NewEncoder returns an encoder using the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// AppendEncoder returns an encoder whose stream starts at the end of
// dst: Bytes returns dst's bytes followed by the stream. Passing a
// reused buffer's buf[:0] with enough capacity makes encoding
// allocation-free; the encoder never reads dst's spare capacity, so it
// may hold stale bytes.
func AppendEncoder(dst []byte, order ByteOrder) Encoder {
	return Encoder{buf: dst, origin: len(dst), order: order}
}

// Bytes returns the destination slice with everything encoded so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the length of Bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Order returns the encoder's byte order.
func (e *Encoder) Order() ByteOrder { return e.order }

// Grow makes room for n more bytes, so that the puts that follow
// append without reallocating.
func (e *Encoder) Grow(n int) {
	if n > cap(e.buf)-len(e.buf) {
		e.buf = append(make([]byte, 0, len(e.buf)+n), e.buf...)
	}
}

// SetOrigin moves the alignment origin to offset at of Bytes and returns
// the previous origin. A CDR encapsulation (GIOP service-context data)
// aligns from its own first byte: set the origin to Len before writing
// one in place and restore it afterwards.
func (e *Encoder) SetOrigin(at int) (prev int) {
	prev, e.origin = e.origin, at
	return prev
}

var padding [8]byte

// Align pads with zero bytes to an n-byte boundary of the stream; n is
// a power of two no larger than 8.
func (e *Encoder) Align(n int) {
	e.buf = append(e.buf, padding[:-(len(e.buf)-e.origin)&(n-1)]...)
}

// PutOctet appends one raw byte.
func (e *Encoder) PutOctet(v byte) { e.buf = append(e.buf, v) }

// PutOctets appends raw bytes with no length prefix — an already
// encoded stream, such as a GIOP message body.
func (e *Encoder) PutOctets(b []byte) { e.buf = append(e.buf, b...) }

// PutBool appends a boolean as one octet (0 or 1).
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutOctet(1)
	} else {
		e.PutOctet(0)
	}
}

// PutShort appends a 16-bit signed integer.
func (e *Encoder) PutShort(v int16) { e.PutUShort(uint16(v)) }

// PutUShort appends a 16-bit unsigned integer.
func (e *Encoder) PutUShort(v uint16) {
	e.Align(2)
	if e.order == LittleEndian {
		e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	} else {
		e.buf = binary.BigEndian.AppendUint16(e.buf, v)
	}
}

// PutLong appends a 32-bit signed integer (CORBA "long").
func (e *Encoder) PutLong(v int32) { e.PutULong(uint32(v)) }

// PutULong appends a 32-bit unsigned integer.
func (e *Encoder) PutULong(v uint32) {
	e.Align(4)
	if e.order == LittleEndian {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	} else {
		e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	}
}

// PutLongLong appends a 64-bit signed integer.
func (e *Encoder) PutLongLong(v int64) { e.PutULongLong(uint64(v)) }

// PutULongLong appends a 64-bit unsigned integer.
func (e *Encoder) PutULongLong(v uint64) {
	e.Align(8)
	if e.order == LittleEndian {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	} else {
		e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	}
}

// PutFloat appends a 32-bit IEEE float.
func (e *Encoder) PutFloat(v float32) { e.PutULong(math.Float32bits(v)) }

// PutDouble appends a 64-bit IEEE float.
func (e *Encoder) PutDouble(v float64) { e.PutULongLong(math.Float64bits(v)) }

// PutString appends a CORBA string: ulong length including the NUL
// terminator, the bytes, then the NUL.
func (e *Encoder) PutString(s string) {
	e.PutULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// PutOctetSeq appends a sequence<octet>: ulong count then raw bytes.
func (e *Encoder) PutOctetSeq(b []byte) {
	e.PutULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder parses a CDR stream. Alignment is tracked from the start of
// the buffer, matching how GIOP bodies are decoded in place.
type Decoder struct {
	buf   []byte
	pos   int
	order ByteOrder
}

// NewDecoder returns a decoder over buf using the given byte order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// Pos returns the read cursor.
func (d *Decoder) Pos() int { return d.pos }

// align advances to an n-byte boundary; n is a power of two.
func (d *Decoder) align(n int) { d.pos = (d.pos + n - 1) &^ (n - 1) }

// Skip advances past n bytes without decoding them — a header the
// caller has already parsed, whose bytes still count for alignment.
func (d *Decoder) Skip(n int) error {
	if err := d.need(n); err != nil {
		return err
	}
	d.pos += n
	return nil
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.pos, len(d.buf))
	}
	return nil
}

// Octet reads one raw byte.
func (d *Decoder) Octet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// Bool reads a boolean octet, rejecting values other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Octet()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: boolean octet %d", ErrInvalid, v)
	}
}

// Short reads a 16-bit signed integer.
func (d *Decoder) Short() (int16, error) {
	v, err := d.UShort()
	return int16(v), err
}

// UShort reads a 16-bit unsigned integer.
func (d *Decoder) UShort() (uint16, error) {
	d.align(2)
	if err := d.need(2); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 2
	if d.order == LittleEndian {
		return binary.LittleEndian.Uint16(b), nil
	}
	return binary.BigEndian.Uint16(b), nil
}

// Long reads a 32-bit signed integer.
func (d *Decoder) Long() (int32, error) {
	v, err := d.ULong()
	return int32(v), err
}

// ULong reads a 32-bit unsigned integer.
func (d *Decoder) ULong() (uint32, error) {
	d.align(4)
	if err := d.need(4); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 4
	if d.order == LittleEndian {
		return binary.LittleEndian.Uint32(b), nil
	}
	return binary.BigEndian.Uint32(b), nil
}

// LongLong reads a 64-bit signed integer.
func (d *Decoder) LongLong() (int64, error) {
	v, err := d.ULongLong()
	return int64(v), err
}

// ULongLong reads a 64-bit unsigned integer.
func (d *Decoder) ULongLong() (uint64, error) {
	d.align(8)
	if err := d.need(8); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 8
	if d.order == LittleEndian {
		return binary.LittleEndian.Uint64(b), nil
	}
	return binary.BigEndian.Uint64(b), nil
}

// Float reads a 32-bit IEEE float.
func (d *Decoder) Float() (float32, error) {
	v, err := d.ULong()
	return math.Float32frombits(v), err
}

// Double reads a 64-bit IEEE float.
func (d *Decoder) Double() (float64, error) {
	v, err := d.ULongLong()
	return math.Float64frombits(v), err
}

// String reads a CORBA string.
func (d *Decoder) String() (string, error) {
	view, err := d.StringView()
	return string(view), err
}

// StringView reads a CORBA string without copying it: the returned bytes,
// terminator excluded, alias the decoder's buffer (capacity clipped), are
// valid for as long as the buffer is, and must not be written to.
func (d *Decoder) StringView() ([]byte, error) {
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length string (missing terminator)", ErrInvalid)
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	end := d.pos + int(n) - 1
	raw := d.buf[d.pos:end:end]
	d.pos += int(n)
	if d.buf[end] != 0 {
		return nil, fmt.Errorf("%w: string missing NUL terminator", ErrInvalid)
	}
	return raw, nil
}

// OctetSeq reads a sequence<octet>. The returned slice is a copy.
func (d *Decoder) OctetSeq() ([]byte, error) {
	view, err := d.OctetSeqView()
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(view)), view...), nil
}

// OctetSeqView reads a sequence<octet> without copying it: the returned
// slice aliases the decoder's buffer (capacity clipped, so an append
// reallocates instead of writing into the bytes that follow). It is
// valid for as long as the buffer is, and must not be written to.
func (d *Decoder) OctetSeqView() ([]byte, error) {
	n, err := d.ULong()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	end := d.pos + int(n)
	view := d.buf[d.pos:end:end]
	d.pos = end
	return view, nil
}
