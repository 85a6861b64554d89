package giop

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/cdr"
)

// validRequest builds a well-formed wire Request for mutation tests.
func validRequest(order cdr.ByteOrder) []byte {
	req := &Request{
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("app/obj"),
		Operation:        "work",
		ServiceContexts: []ServiceContext{
			PriorityContext(100, order),
			DeadlineContext(123456789, order),
		},
		Body: []byte{1, 2, 3, 4},
	}
	return req.Marshal(order)
}

// TestDecodeMalformed pins the decoder's behaviour on the corruption
// shapes the byte-level fault injector produces: truncated headers,
// oversized declared body lengths, and unknown message types must all
// yield an error (the server then answers MessageError), never a panic.
func TestDecodeMalformed(t *testing.T) {
	wire := validRequest(cdr.LittleEndian)

	patch := func(buf []byte, off int, b byte) []byte {
		out := append([]byte(nil), buf...)
		out[off] = b
		return out
	}
	patchSize := func(buf []byte, size uint32) []byte {
		out := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(out[8:12], size)
		return out
	}

	cases := []struct {
		name string
		buf  []byte
		want error // nil means "any non-nil error"
	}{
		{"empty", nil, ErrBadMessage},
		{"truncated header 1 byte", wire[:1], ErrBadMessage},
		{"truncated header 4 bytes", wire[:4], ErrBadMessage},
		{"truncated header 11 bytes", wire[:11], ErrBadMessage},
		{"header only, size lies", wire[:HeaderSize], ErrBadMessage},
		{"truncated mid-body", wire[:len(wire)-3], ErrBadMessage},
		{"bad magic", patch(wire, 0, 'X'), ErrBadMagic},
		{"bad major version", patch(wire, 4, 9), ErrBadVersion},
		{"bad minor version", patch(wire, 5, 9), ErrBadVersion},
		{"unknown message type 7", patch(wire, 7, 7), ErrBadMessage},
		{"unknown message type 255", patch(wire, 7, 255), ErrBadMessage},
		{"oversized declared body", patchSize(wire, uint32(len(wire))+1000), ErrBadMessage},
		{"undersized declared body", patchSize(wire, 1), ErrBadMessage},
		{"huge declared body", patchSize(wire, 0xFFFF_FFFF), ErrBadMessage},
		{"flipped byte-order flag", patch(wire, 6, 0), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, err := Decode(tc.buf)
			if err == nil {
				t.Fatalf("Decode accepted %q: %#v", tc.name, msg)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Decode error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeOversizedInnerLengths corrupts the length fields inside a
// structurally valid envelope: declared octet-sequence and string lengths
// far beyond the buffer must fail cleanly in the CDR layer.
func TestDecodeOversizedInnerLengths(t *testing.T) {
	wire := validRequest(cdr.LittleEndian)
	// The object-key length ULong sits right after the 12-byte header,
	// request id (4), flags+reserved (4), and addressing disposition
	// (2 + 2 pad) = offset 24.
	for _, huge := range []uint32{0x7FFF_FFFF, 0xFFFF_FFF0} {
		buf := append([]byte(nil), wire...)
		binary.LittleEndian.PutUint32(buf[24:28], huge)
		if _, err := Decode(buf); err == nil {
			t.Fatalf("Decode accepted object key length %#x", huge)
		}
	}
	// A service-context count beyond the sanity cap must be rejected
	// without allocating: corrupt every 4-byte word in turn and simply
	// require no panic and no silent success with absurd lengths.
	for off := HeaderSize; off+4 <= len(wire); off += 4 {
		buf := append([]byte(nil), wire...)
		binary.LittleEndian.PutUint32(buf[off:off+4], 0xFFFF_FFFF)
		Decode(buf) // must not panic; error or not is corruption-dependent
	}
}

// frameSeeds are the wire-framing corpus: shapes the real-socket framer
// must survive — truncated length prefixes, headers that arrive split
// across reads, and hostile declared lengths far beyond the stream.
func frameSeeds() [][]byte {
	wire := validRequest(cdr.LittleEndian)
	truncated := append([]byte(nil), wire[:8]...) // cut inside the length prefix
	oversized := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(oversized[8:12], 0xFFFF_FFF0)
	justOver := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(justOver[8:12], DefaultMaxMessage+1)
	lying := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(lying[8:12], uint32(len(wire))) // declares more than follows
	return [][]byte{wire, truncated, oversized, justOver, lying, wire[:1], wire[:HeaderSize]}
}

// FuzzDecode asserts the GIOP decoder never panics, that the by-value
// entry points agree with it (checkByValue), and that every frame
// it accepts re-marshals to a frame that is itself: the re-marshalled
// bytes decode to an equal message and marshal — through AppendTo into a
// buffer of stale bytes — to the same bytes again. (The input itself
// need not be that frame: Decode accepts what Marshal never writes, such
// as nonzero padding, other response flags, bytes behind a fixed-size
// message.) Corruption yields MessageError handling, never a crash, and
// the in-place decode reads nothing it then encodes differently.
func FuzzDecode(f *testing.F) {
	for _, order := range []cdr.ByteOrder{cdr.LittleEndian, cdr.BigEndian} {
		f.Add(validRequest(order))
		f.Add((&Reply{RequestID: 9, Status: StatusNoException, Body: []byte("ok")}).Marshal(order))
		f.Add((&Reply{RequestID: 2, Status: StatusSystemException,
			ServiceContexts: []ServiceContext{TimestampContext(42, order)}}).Marshal(order))
		f.Add((&Request{RequestID: 11, ObjectKey: []byte("consumer/a"), Operation: "push",
			ServiceContexts: []ServiceContext{
				PriorityContext(16000, order),
				EventContext("camera/frames", "cam0", 42, 16000, 123456789, order),
			},
			Body: []byte("frame")}).Marshal(order))
		f.Add((&LocateRequest{RequestID: 3, ObjectKey: []byte("a/b")}).Marshal(order))
		f.Add((&LocateReply{RequestID: 3, Status: LocateObjectHere}).Marshal(order))
		f.Add((&CancelRequest{RequestID: 4}).Marshal(order))
		f.Add((&CloseConnection{}).Marshal(order))
		f.Add((&MessageError{}).Marshal(order))
	}
	f.Add([]byte("GIOP"))
	f.Add([]byte{})
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		checkByValue(t, data, msg, err)
		if err != nil {
			return
		}
		if msg == nil {
			t.Fatal("Decode returned nil message and nil error")
		}
		// Re-marshalling a decoded message must not panic either.
		order := cdr.BigEndian
		if len(data) > 6 && data[6]&1 == 1 {
			order = cdr.LittleEndian
		}
		out := msg.Marshal(order)
		if MsgType(out[7]) != msg.Type() {
			t.Fatalf("re-marshal type %v != decoded type %v", MsgType(out[7]), msg.Type())
		}
		again, err := Decode(out)
		if err != nil {
			t.Fatalf("re-marshalled frame rejected: %v\n%x", err, out)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("re-marshalled frame decodes to %#v, was %#v", again, msg)
		}
		dirty := bytes.Repeat([]byte{0xFF}, len(out)+8)
		if fixed := again.AppendTo(dirty[:0], order); !bytes.Equal(fixed, out) {
			t.Fatalf("re-marshalled frame does not re-marshal to itself\n got %x\nwant %x", fixed, out)
		}
	})
}

// checkByValue holds DecodeRequest and DecodeReply to Decode's result
// msg, err for the same bytes: for a frame of their own type the same
// error, or an equal message — also when the operation name is passed as
// the previous one, and so reused — and for a frame of any other type an
// error.
func checkByValue(t *testing.T, data []byte, msg Message, err error) {
	t.Helper()
	var req Request
	var rep Reply
	rerr := DecodeRequest(data, &req, "")
	perr := DecodeReply(data, &rep)
	for _, c := range []struct {
		name string
		t    MsgType
		got  Message
		err  error
	}{{"DecodeRequest", MsgRequest, &req, rerr}, {"DecodeReply", MsgReply, &rep, perr}} {
		if len(data) < HeaderSize || MsgType(data[7]) != c.t {
			if c.err == nil {
				t.Fatalf("%s accepted a frame Decode reads as %#v", c.name, msg)
			}
			continue
		}
		if fmt.Sprint(c.err) != fmt.Sprint(err) {
			t.Fatalf("%s error %v, Decode's %v", c.name, c.err, err)
		}
		if err == nil && !reflect.DeepEqual(c.got, msg) {
			t.Fatalf("%s decoded %#v, Decode %#v", c.name, c.got, msg)
		}
	}
	if rerr == nil {
		var again Request
		if err := DecodeRequest(data, &again, req.Operation); err != nil || !reflect.DeepEqual(&again, &req) {
			t.Fatalf("DecodeRequest with the operation name repeated: %#v, %v; was %#v", again, err, req)
		}
	}
}

// FuzzReadFrame drives the stream framer with arbitrary bytes delivered
// in arbitrary chunk sizes: it must never panic, never allocate beyond
// the declared cap, and on success yield a frame Decode agrees is the
// length the header declared. The seeds cover the wire plane's hostile
// shapes: truncated length prefix, split-across-read header, oversized
// claimed length.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed, 1)
		f.Add(seed, 3)
		f.Add(seed, 4096)
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk < 1 {
			chunk = 1
		}
		const maxMsg = 1 << 16
		r := &fuzzChunkReader{buf: data, n: chunk}
		buf, err := ReadFrame(r, maxMsg, nil)
		if err != nil {
			return
		}
		if len(buf) > HeaderSize+maxMsg {
			t.Fatalf("frame of %d bytes exceeds the %d cap", len(buf)-HeaderSize, maxMsg)
		}
		if len(buf) < HeaderSize {
			t.Fatalf("frame shorter than a header: %d bytes", len(buf))
		}
		// A framed message is structurally sized: Decode must never
		// reject it for a header/size mismatch (inner malformations are
		// still fair game, but must error cleanly, not panic).
		if _, derr := Decode(buf); derr != nil && errors.Is(derr, ErrBadMagic) {
			t.Fatalf("framer passed bytes Decode rejects as non-GIOP: %v", derr)
		}
	})
}

// fuzzChunkReader yields at most n bytes per Read, exercising the
// framer's partial-read handling under fuzzing.
type fuzzChunkReader struct {
	buf []byte
	n   int
}

func (c *fuzzChunkReader) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.buf) {
		n = len(c.buf)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.buf[:n])
	c.buf = c.buf[n:]
	return n, nil
}
