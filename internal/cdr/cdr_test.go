package cdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

func orders() []ByteOrder { return []ByteOrder{BigEndian, LittleEndian} }

func TestPrimitiveRoundTrip(t *testing.T) {
	for _, o := range orders() {
		e := NewEncoder(o)
		e.PutOctet(0xAB)
		e.PutBool(true)
		e.PutShort(-1234)
		e.PutUShort(54321)
		e.PutLong(-7_000_000)
		e.PutULong(4_000_000_000)
		e.PutLongLong(-9e15)
		e.PutULongLong(1 << 60)
		e.PutFloat(3.25)
		e.PutDouble(-2.5e-10)
		e.PutString("hello, GIOP")
		e.PutOctetSeq([]byte{1, 2, 3})

		d := NewDecoder(e.Bytes(), o)
		if v, err := d.Octet(); err != nil || v != 0xAB {
			t.Fatalf("%v octet = %v, %v", o, v, err)
		}
		if v, err := d.Bool(); err != nil || v != true {
			t.Fatalf("%v bool = %v, %v", o, v, err)
		}
		if v, err := d.Short(); err != nil || v != -1234 {
			t.Fatalf("%v short = %v, %v", o, v, err)
		}
		if v, err := d.UShort(); err != nil || v != 54321 {
			t.Fatalf("%v ushort = %v, %v", o, v, err)
		}
		if v, err := d.Long(); err != nil || v != -7_000_000 {
			t.Fatalf("%v long = %v, %v", o, v, err)
		}
		if v, err := d.ULong(); err != nil || v != 4_000_000_000 {
			t.Fatalf("%v ulong = %v, %v", o, v, err)
		}
		if v, err := d.LongLong(); err != nil || v != -9e15 {
			t.Fatalf("%v longlong = %v, %v", o, v, err)
		}
		if v, err := d.ULongLong(); err != nil || v != 1<<60 {
			t.Fatalf("%v ulonglong = %v, %v", o, v, err)
		}
		if v, err := d.Float(); err != nil || v != 3.25 {
			t.Fatalf("%v float = %v, %v", o, v, err)
		}
		if v, err := d.Double(); err != nil || v != -2.5e-10 {
			t.Fatalf("%v double = %v, %v", o, v, err)
		}
		if v, err := d.String(); err != nil || v != "hello, GIOP" {
			t.Fatalf("%v string = %q, %v", o, v, err)
		}
		if v, err := d.OctetSeq(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
			t.Fatalf("%v octetseq = %v, %v", o, v, err)
		}
		if d.pos != len(d.buf) {
			t.Fatalf("%v left %d bytes", o, len(d.buf)-d.pos)
		}
	}
}

func TestAlignment(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutOctet(1)   // offset 0
	e.PutULong(7)   // aligns to 4: 3 pad bytes
	e.PutOctet(2)   // offset 8
	e.PutDouble(1)  // aligns to 16: 7 pad bytes
	e.PutOctet(3)   // offset 24
	e.PutUShort(42) // aligns to 26: 1 pad byte
	want := 28
	if e.Len() != want {
		t.Fatalf("encoded length = %d, want %d", e.Len(), want)
	}
	// Pads must decode transparently.
	d := NewDecoder(e.Bytes(), BigEndian)
	d.Octet()
	if v, _ := d.ULong(); v != 7 {
		t.Fatal("ulong misaligned")
	}
	d.Octet()
	if v, _ := d.Double(); v != 1 {
		t.Fatal("double misaligned")
	}
	d.Octet()
	if v, _ := d.UShort(); v != 42 {
		t.Fatal("ushort misaligned")
	}
}

func TestBigEndianWireFormat(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutULong(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{1, 2, 3, 4}) {
		t.Fatalf("big-endian ulong = %v", e.Bytes())
	}
	e2 := NewEncoder(LittleEndian)
	e2.PutULong(0x01020304)
	if !bytes.Equal(e2.Bytes(), []byte{4, 3, 2, 1}) {
		t.Fatalf("little-endian ulong = %v", e2.Bytes())
	}
}

func TestStringWireFormat(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutString("ab")
	want := []byte{0, 0, 0, 3, 'a', 'b', 0}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("string encoding = %v, want %v", e.Bytes(), want)
	}
}

func TestEmptyString(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.PutString("")
	d := NewDecoder(e.Bytes(), LittleEndian)
	v, err := d.String()
	if err != nil || v != "" {
		t.Fatalf("empty string = %q, %v", v, err)
	}
}

func TestTruncatedErrors(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutULong(12345)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut], BigEndian)
		if _, err := d.ULong(); err == nil {
			t.Fatalf("truncated at %d decoded successfully", cut)
		}
	}
}

func TestInvalidBool(t *testing.T) {
	d := NewDecoder([]byte{7}, BigEndian)
	if _, err := d.Bool(); err == nil {
		t.Fatal("bool octet 7 accepted")
	}
}

func TestInvalidStringMissingNul(t *testing.T) {
	// length 2, bytes "ab" with no NUL.
	d := NewDecoder([]byte{0, 0, 0, 2, 'a', 'b'}, BigEndian)
	if _, err := d.String(); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

func TestZeroLengthStringRejected(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 0}, BigEndian)
	if _, err := d.String(); err == nil {
		t.Fatal("zero-length string accepted")
	}
}

// Property: every (value-sequence, order) round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	prop := func(oc byte, b bool, s int16, us uint16, l int32, ul uint32, ll int64, ull uint64, f float64, str string, seq []byte, little bool) bool {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		// CORBA strings cannot contain NUL.
		clean := make([]rune, 0, len(str))
		for _, r := range str {
			if r != 0 {
				clean = append(clean, r)
			}
		}
		str = string(clean)

		e := NewEncoder(order)
		e.PutOctet(oc)
		e.PutBool(b)
		e.PutShort(s)
		e.PutUShort(us)
		e.PutLong(l)
		e.PutULong(ul)
		e.PutLongLong(ll)
		e.PutULongLong(ull)
		e.PutDouble(f)
		e.PutString(str)
		e.PutOctetSeq(seq)

		d := NewDecoder(e.Bytes(), order)
		oc2, _ := d.Octet()
		b2, _ := d.Bool()
		s2, _ := d.Short()
		us2, _ := d.UShort()
		l2, _ := d.Long()
		ul2, _ := d.ULong()
		ll2, _ := d.LongLong()
		ull2, _ := d.ULongLong()
		f2, _ := d.Double()
		str2, _ := d.String()
		seq2, err := d.OctetSeq()
		if err != nil {
			return false
		}
		return oc2 == oc && b2 == b && s2 == s && us2 == us && l2 == l &&
			ul2 == ul && ll2 == ll && ull2 == ull &&
			(f2 == f || (f2 != f2 && f != f)) && // NaN-safe
			str2 == str && bytes.Equal(seq2, seq) && d.pos == len(d.buf)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary input.
func TestDecoderRobustness(t *testing.T) {
	prop := func(data []byte, little bool) bool {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		d := NewDecoder(data, order)
		for d.pos < len(d.buf) {
			before := d.Pos()
			if _, err := d.String(); err != nil {
				if _, err := d.ULong(); err != nil {
					if _, err := d.Octet(); err != nil {
						return true
					}
				}
			}
			if d.Pos() == before {
				// No progress would loop forever; that itself is a bug.
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
