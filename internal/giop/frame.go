package giop

// Wire framing: GIOP messages are self-delimiting — a fixed 12-byte
// header whose last field is the body length — so reading one message
// off a byte stream means reading the header, validating it, then
// reading exactly the declared remainder. ReadFrame is that framer,
// shared by the real-socket wire plane (internal/wire) and any test
// that replays captured bytes. It is deliberately tolerant of partial
// reads (io.ReadFull absorbs however the kernel fragments the stream)
// and deliberately intolerant of hostile length prefixes: the declared
// size is checked against a cap before any allocation, so a corrupted
// or malicious 4-GiB length cannot make the reader allocate unbounded
// memory.

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/cdr"
)

// DefaultMaxMessage is the default cap on one GIOP message's declared
// body size (header excluded). 8 MiB comfortably covers every payload
// this repository produces (media frames included) while bounding what
// a hostile peer can make a reader allocate.
const DefaultMaxMessage = 8 << 20

// ErrTooLarge means a message declared a body size beyond the reader's
// cap. The connection is unrecoverable: the stream position is inside
// an oversized message, so the only safe response is MessageError and
// close.
var ErrTooLarge = errors.New("giop: message exceeds size cap")

// ReadFrame reads one complete GIOP message (header plus body) from r.
// The header is validated (magic, version) and the declared body size
// checked against max (0 selects DefaultMaxMessage) before the body is
// read or any body-sized buffer allocated. scratch, when it has the
// capacity, is the destination, and a caller that reuses it reads
// without allocating. With room for the header only, scratch saves the
// header's allocation and the frame is allocated once, at its exact
// size — what a reader that hands each frame to Decode wants, since the
// decoded message aliases its frame; only a frame of HeaderSize bytes
// (no body, nothing to alias) is then returned in scratch itself.
//
// A clean end of stream before any header byte returns io.EOF
// unwrapped, so callers can distinguish an orderly close from a
// truncated message (io.ErrUnexpectedEOF wrapped in ErrBadMessage).
func ReadFrame(r io.Reader, max uint32, scratch []byte) ([]byte, error) {
	// The header is read where it will stay: a local array would escape
	// to the heap through r.
	buf := scratch
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %v", ErrBadMessage, err)
	}
	total, err := FrameSize(hdr, max)
	if err != nil {
		return nil, err
	}
	if cap(buf) < total {
		buf = make([]byte, total)
		copy(buf, hdr)
	} else {
		buf = buf[:total]
	}
	if _, err := io.ReadFull(r, buf[HeaderSize:]); err != nil {
		return nil, fmt.Errorf("%w: truncated body (%d declared): %v", ErrBadMessage, total-HeaderSize, err)
	}
	return buf, nil
}

// FrameSize validates a message header — hdr's first HeaderSize bytes:
// magic, version, the declared body size against max (0 selects
// DefaultMaxMessage) — and returns the length of the whole frame, header
// included. It is ReadFrame's header check, exported for a reader that
// peeks at the header to choose the frame's memory before it reads (the
// wire server borrows large frames from a pool).
func FrameSize(hdr []byte, max uint32) (int, error) {
	if max == 0 {
		max = DefaultMaxMessage
	}
	if !bytes.Equal(hdr[0:4], magic[:]) {
		return 0, ErrBadMagic
	}
	if hdr[4] != VersionMajor || hdr[5] != VersionMinor {
		return 0, fmt.Errorf("%w: %d.%d", ErrBadVersion, hdr[4], hdr[5])
	}
	size := headerOrder(hdr).Order().Uint32(hdr[8:12])
	if size > max {
		return 0, fmt.Errorf("%w: declared %d bytes, cap %d", ErrTooLarge, size, max)
	}
	return HeaderSize + int(size), nil
}

// headerOrder returns the byte order a message header's flags declare.
func headerOrder(hdr []byte) cdr.ByteOrder { return cdr.ByteOrder(hdr[6] & 1) }
