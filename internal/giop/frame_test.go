package giop

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/cdr"
)

// chunkReader yields the underlying bytes at most n at a time, forcing
// the framer through partial reads the way a real TCP stream does.
type chunkReader struct {
	buf []byte
	n   int
}

func (c *chunkReader) Read(p []byte) (int, error) {
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

// TestReadFrameSplitAcrossReads pins the partial-read tolerance: a
// message delivered one byte at a time (header split mid-field, body
// split everywhere) comes out bit-identical, and consecutive messages
// on one stream frame correctly.
func TestReadFrameSplitAcrossReads(t *testing.T) {
	m1 := validRequest(cdr.LittleEndian)
	m2 := (&Reply{RequestID: 7, Status: StatusNoException, Body: []byte("ok")}).Marshal(cdr.LittleEndian)
	for _, chunk := range []int{1, 2, 3, 5, 7, 1024} {
		r := &chunkReader{buf: append(append([]byte(nil), m1...), m2...), n: chunk}
		got1, err := ReadFrame(r, 0, nil)
		if err != nil {
			t.Fatalf("chunk %d: first frame: %v", chunk, err)
		}
		if !bytes.Equal(got1, m1) {
			t.Fatalf("chunk %d: first frame mismatch", chunk)
		}
		got2, err := ReadFrame(r, 0, nil)
		if err != nil {
			t.Fatalf("chunk %d: second frame: %v", chunk, err)
		}
		if !bytes.Equal(got2, m2) {
			t.Fatalf("chunk %d: second frame mismatch", chunk)
		}
		if _, err := ReadFrame(r, 0, nil); err != io.EOF {
			t.Fatalf("chunk %d: after last frame err = %v, want io.EOF", chunk, err)
		}
	}
}

// TestFrameSizeAgreesWithReadFrame: the exported header check is the one
// ReadFrame makes — the same size for a valid header, the same error for
// each invalid one — so a reader that peeks with it and then calls
// ReadFrame never disagrees with itself.
func TestFrameSizeAgreesWithReadFrame(t *testing.T) {
	wire := validRequest(cdr.BigEndian)
	if n, err := FrameSize(wire[:HeaderSize], 0); err != nil || n != len(wire) {
		t.Fatalf("FrameSize = %d, %v; the frame has %d bytes", n, err, len(wire))
	}
	mutate := map[string]func(b []byte){
		"magic":   func(b []byte) { b[0] = 'X' },
		"version": func(b []byte) { b[5] = 9 },
		"size":    func(b []byte) { binary.BigEndian.PutUint32(b[8:12], DefaultMaxMessage+1) },
	}
	for name, f := range mutate {
		bad := append([]byte(nil), wire...)
		f(bad)
		_, want := ReadFrame(bytes.NewReader(bad), 0, nil)
		if _, err := FrameSize(bad[:HeaderSize], 0); err == nil || err.Error() != want.Error() {
			t.Errorf("bad %s: FrameSize says %v, ReadFrame %v", name, err, want)
		}
	}
	if _, err := FrameSize(wire[:HeaderSize], 4); !errors.Is(err, ErrTooLarge) {
		t.Errorf("small cap: err = %v, want ErrTooLarge", err)
	}
}

// TestReadFrameHostileLengths pins the allocation guard: truncated
// length prefixes fail as malformed, and an oversized declared length
// is refused before any body-sized allocation happens.
func TestReadFrameHostileLengths(t *testing.T) {
	wire := validRequest(cdr.LittleEndian)

	t.Run("truncated length prefix", func(t *testing.T) {
		for _, cut := range []int{1, 4, 8, 11} {
			if _, err := ReadFrame(bytes.NewReader(wire[:cut]), 0, nil); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("header cut at %d: err = %v, want ErrBadMessage", cut, err)
			}
		}
	})
	t.Run("oversized claimed length", func(t *testing.T) {
		for _, huge := range []uint32{DefaultMaxMessage + 1, 0x7FFF_FFFF, 0xFFFF_FFFF} {
			buf := append([]byte(nil), wire...)
			binary.LittleEndian.PutUint32(buf[8:12], huge)
			if _, err := ReadFrame(bytes.NewReader(buf), 0, nil); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("claimed %#x: err = %v, want ErrTooLarge", huge, err)
			}
		}
		// The cap is the caller's: a small cap refuses merely-large
		// messages, and a message exactly at the cap passes.
		if _, err := ReadFrame(bytes.NewReader(wire), 4, nil); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("small cap: err = %v, want ErrTooLarge", err)
		}
		if _, err := ReadFrame(bytes.NewReader(wire), uint32(len(wire)-HeaderSize), nil); err != nil {
			t.Fatalf("exact cap: err = %v, want ok", err)
		}
	})
	t.Run("declared beyond stream", func(t *testing.T) {
		buf := append([]byte(nil), wire...)
		binary.LittleEndian.PutUint32(buf[8:12], uint32(len(wire))) // bigger than what follows
		if _, err := ReadFrame(bytes.NewReader(buf), 0, nil); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("err = %v, want ErrBadMessage", err)
		}
	})
	t.Run("bad magic and version", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[0] = 'X'
		if _, err := ReadFrame(bytes.NewReader(bad), 0, nil); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
		bad = append([]byte(nil), wire...)
		bad[5] = 9
		if _, err := ReadFrame(bytes.NewReader(bad), 0, nil); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
}

// TestReadFrameScratchReuse pins the pooling contract: a scratch buffer
// with capacity is reused (no fresh allocation), one without is
// replaced, and the frame then decodes like any other.
func TestReadFrameScratchReuse(t *testing.T) {
	wire := validRequest(cdr.BigEndian)
	scratch := make([]byte, 0, 4096)
	got, err := ReadFrame(bytes.NewReader(wire), 0, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("frame did not reuse the scratch buffer's storage")
	}
	msg, err := Decode(got)
	if err != nil {
		t.Fatalf("decoding framed bytes: %v", err)
	}
	if msg.Type() != MsgRequest {
		t.Fatalf("decoded %v, want Request", msg.Type())
	}

	small := make([]byte, 0, 4)
	got, err = ReadFrame(bytes.NewReader(wire), 0, small)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wire) {
		t.Fatal("frame read with undersized scratch mismatches")
	}
}

// TestReadFrameHeaderScratch pins what the wire read loops rely on: with
// a header-sized scratch a frame costs one allocation, of exactly its
// size, in storage of its own (so the message decoded from it may keep
// it while the scratch reads the next header); with a frame-sized
// scratch it costs none.
func TestReadFrameHeaderScratch(t *testing.T) {
	wire := validRequest(cdr.LittleEndian)
	rd := bytes.NewReader(wire)
	var r io.Reader = rd
	hdr := make([]byte, HeaderSize)
	var got []byte
	read := func(scratch []byte) func() {
		return func() {
			rd.Reset(wire)
			var err error
			if got, err = ReadFrame(r, 0, scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, read(hdr)); n != 1 {
		t.Errorf("ReadFrame with a header-sized scratch: %v allocs, want 1", n)
	}
	if !bytes.Equal(got, wire) || cap(got) != len(wire) || &got[0] == &hdr[0] {
		t.Errorf("frame: %d bytes in a buffer of %d (shares the scratch: %v), want its own %d",
			len(got), cap(got), &got[0] == &hdr[0], len(wire))
	}
	if n := testing.AllocsPerRun(100, read(make([]byte, 0, len(wire)))); n != 0 {
		t.Errorf("ReadFrame with a frame-sized scratch: %v allocs, want 0", n)
	}
}

// TestReadFrameBigEndianSize reads the declared size honouring the
// header's byte-order flag, which the sim ORB can set either way.
func TestReadFrameBigEndianSize(t *testing.T) {
	wire := validRequest(cdr.BigEndian)
	got, err := ReadFrame(bytes.NewReader(wire), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wire) {
		t.Fatal("big-endian frame mismatch")
	}
}
