package cdr

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"unsafe"
)

// refEncoder is the encoder as it was before it learned to append into a
// caller's buffer: alignment by a loop of zero octets from offset 0 of
// its own slice, every integer staged in a temporary array. The tests
// below hold the current encoder to its bytes.
type refEncoder struct {
	buf   []byte
	order ByteOrder
}

func (e *refEncoder) align(n int) {
	for len(e.buf)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

func (e *refEncoder) putOctet(v byte) { e.buf = append(e.buf, v) }

func (e *refEncoder) putUShort(v uint16) {
	e.align(2)
	var b [2]byte
	e.order.Order().PutUint16(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *refEncoder) putULong(v uint32) {
	e.align(4)
	var b [4]byte
	e.order.Order().PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *refEncoder) putULongLong(v uint64) {
	e.align(8)
	var b [8]byte
	e.order.Order().PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *refEncoder) putString(s string) {
	e.putULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

func (e *refEncoder) putOctetSeq(b []byte) {
	e.putULong(uint32(len(b)))
	for _, v := range b {
		e.putOctet(v)
	}
}

// randomPuts applies one seeded sequence of puts to both encoders.
func randomPuts(rng *rand.Rand, ref *refEncoder, e *Encoder) {
	for n := rng.Intn(24); n > 0; n-- {
		switch rng.Intn(8) {
		case 0:
			v := byte(rng.Intn(256))
			ref.putOctet(v)
			e.PutOctet(v)
		case 1:
			v := uint16(rng.Uint32())
			ref.putUShort(v)
			e.PutUShort(v)
		case 2:
			v := rng.Uint32()
			ref.putULong(v)
			e.PutULong(v)
		case 3:
			v := rng.Uint64()
			ref.putULongLong(v)
			e.PutULongLong(v)
		case 4:
			s := "operation_name"[:rng.Intn(15)]
			ref.putString(s)
			e.PutString(s)
		case 5:
			b := randomBytes(rng, rng.Intn(300))
			ref.putOctetSeq(b)
			e.PutOctetSeq(b)
		case 6:
			n := 1 << rng.Intn(4)
			ref.align(n)
			e.Align(n)
		case 7:
			b := randomBytes(rng, rng.Intn(40))
			ref.buf = append(ref.buf, b...)
			e.PutOctets(b)
		}
	}
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestEncoderAppendToDirtyBufferMatchesReference: the same puts give the
// reference's bytes from a fresh encoder, from one appending behind a
// prefix of any length (alignment counts from the stream's origin), and
// from one reusing a buffer full of stale bytes (padding is written, not
// assumed).
func TestEncoderAppendToDirtyBufferMatchesReference(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xFF}, 8<<10)
	for seed := int64(1); seed <= 400; seed++ {
		order := ByteOrder(seed & 1)
		ref := &refEncoder{order: order}
		fresh := NewEncoder(order)
		randomPuts(rand.New(rand.NewSource(seed)), ref, fresh)
		if !bytes.Equal(fresh.Bytes(), ref.buf) {
			t.Fatalf("seed %d: fresh encoder\n got %x\nwant %x", seed, fresh.Bytes(), ref.buf)
		}

		for i := range dirty {
			dirty[i] = 0xFF
		}
		prefix := int(seed % 13)
		app := AppendEncoder(dirty[:prefix], order)
		randomPuts(rand.New(rand.NewSource(seed)), &refEncoder{order: order}, &app)
		got := app.Bytes()
		if !bytes.Equal(got[prefix:], ref.buf) {
			t.Fatalf("seed %d: behind a %d-byte prefix\n got %x\nwant %x", seed, prefix, got[prefix:], ref.buf)
		}
		if !bytes.Equal(got[:prefix], bytes.Repeat([]byte{0xFF}, prefix)) {
			t.Fatalf("seed %d: the encoder wrote into the %d bytes ahead of its stream: %x", seed, prefix, got[:prefix])
		}
	}
}

// TestEncoderGrowMakesPutsAllocationFree pins the budget: after Grow, or
// into a buffer with room, encoding allocates nothing.
func TestEncoderGrowMakesPutsAllocationFree(t *testing.T) {
	body := make([]byte, 64<<10)
	buf := make([]byte, 0, len(body)+64)
	puts := func(e *Encoder) {
		e.PutULong(7)
		e.PutString("echo")
		e.PutOctetSeq(body)
		e.Align(8)
		e.PutOctets(body[:16])
	}
	if n := testing.AllocsPerRun(100, func() {
		e := AppendEncoder(buf[:0], BigEndian)
		puts(&e)
	}); n != 0 {
		t.Errorf("encoding into a warm buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e := AppendEncoder(nil, BigEndian)
		e.Grow(len(body) + 64)
		puts(&e)
	}); n != 1 {
		t.Errorf("encoding after Grow: %v allocs, want 1 (the Grow)", n)
	}
}

// TestOctetSeqViewAliasesBuffer: the view is the buffer's own bytes with
// its capacity clipped, costs no allocation, and OctetSeq stays a copy.
func TestOctetSeqViewAliasesBuffer(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.PutOctetSeq([]byte("payload"))
	e.PutULong(0xDEADBEEF)
	buf := e.Bytes()

	view, err := NewDecoder(buf, LittleEndian).OctetSeqView()
	if err != nil || string(view) != "payload" {
		t.Fatalf("view = %q, %v", view, err)
	}
	if unsafe.SliceData(view) != &buf[4] {
		t.Error("OctetSeqView copied the sequence")
	}
	if cap(view) != len(view) {
		t.Errorf("view capacity %d runs past its %d bytes into the rest of the buffer", cap(view), len(view))
	}
	_ = append(view, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	d := NewDecoder(buf, LittleEndian)
	if err := d.Skip(4 + len("payload")); err != nil {
		t.Fatal(err)
	}
	if v, err := d.ULong(); err != nil || v != 0xDEADBEEF {
		t.Errorf("appending to a view overwrote the value behind it: %#x, %v", v, err)
	}

	copied, err := NewDecoder(buf, LittleEndian).OctetSeq()
	if err != nil || unsafe.SliceData(copied) == &buf[4] {
		t.Errorf("OctetSeq must copy (err %v)", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		d := NewDecoder(buf, LittleEndian)
		if _, err := d.OctetSeqView(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("OctetSeqView: %v allocs, want 0", n)
	}
}

// TestStringViewAliasesBuffer: the view is the string's own bytes without
// the terminator, its capacity clipped so an append cannot overwrite the
// NUL, and it is checked as String is: a missing terminator is an error.
func TestStringViewAliasesBuffer(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.PutString("topic")
	buf := e.Bytes()

	view, err := NewDecoder(buf, LittleEndian).StringView()
	if err != nil || string(view) != "topic" {
		t.Fatalf("view = %q, %v", view, err)
	}
	if unsafe.SliceData(view) != &buf[4] {
		t.Error("StringView copied the string")
	}
	_ = append(view, 0xFF)
	if s, err := NewDecoder(buf, LittleEndian).String(); err != nil || s != "topic" {
		t.Errorf("appending to a view overwrote the terminator: String() = %q, %v", s, err)
	}
	buf[len(buf)-1] = 'x'
	if _, err := NewDecoder(buf, LittleEndian).StringView(); !errors.Is(err, ErrInvalid) {
		t.Errorf("unterminated string: StringView error %v, want ErrInvalid", err)
	}
}

// TestSkip: skipped bytes count for alignment, and Skip cannot run past
// the buffer.
func TestSkip(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutOctets([]byte{1, 2, 3})
	e.PutULong(42) // one byte of padding first
	d := NewDecoder(e.Bytes(), BigEndian)
	if err := d.Skip(3); err != nil {
		t.Fatal(err)
	}
	if v, err := d.ULong(); err != nil || v != 42 {
		t.Fatalf("ULong after Skip = %d, %v", v, err)
	}
	if err := d.Skip(1); err == nil {
		t.Fatal("Skip past the end succeeded")
	}
}

// TestSetOriginAlignsFromTheEncapsulation: a stream written in place
// behind a moved origin has the bytes it has in an encoder of its own,
// and restoring the origin resumes the outer stream's alignment.
func TestSetOriginAlignsFromTheEncapsulation(t *testing.T) {
	inner := func(e *Encoder) {
		e.PutOctet(1)
		e.PutULongLong(0x0102030405060708) // seven bytes of padding from the inner origin
		e.PutULong(9)
	}
	alone := NewEncoder(LittleEndian)
	inner(alone)

	e := NewEncoder(LittleEndian)
	e.PutOctets([]byte{0xAA, 0xBB, 0xCC}) // the inner stream starts at offset 3
	outer := e.SetOrigin(e.Len())
	inner(e)
	if got := e.Bytes()[3:]; !bytes.Equal(got, alone.Bytes()) {
		t.Fatalf("in place\n got %x\nwant %x", got, alone.Bytes())
	}
	if prev := e.SetOrigin(outer); prev != 3 {
		t.Fatalf("SetOrigin returned %d, want the inner origin 3", prev)
	}
	at := e.Len()
	e.PutULongLong(1)
	if pad := (e.Len() - 8) - at; (at+pad)%8 != 0 {
		t.Fatalf("after restoring the origin a long long at offset %d was padded by %d", at, pad)
	}
}
