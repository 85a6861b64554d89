package wire

import (
	"net"
	"sync"
	"time"
)

// largeFrame is the body size from which a frame is written on its own
// instead of joining the connection's pending batch. Coalescing trades a
// copy made under the queue lock for a saved write(2) (≈ 4 µs per message
// in the mixed_flood profile that motivated the writer): a 64 B–256 B
// frame encodes in well under 100 ns, so sixteen of them share a syscall
// for almost nothing, but sending qosperf's echo_large 64 KiB frames
// through the shared batch raised its lat_p50_us from 125–135 µs to
// 148–166 µs and cost 8–12 % of its ops_per_s (3 × 6 s, against both the
// bypass and the code before the writer, which agree), and a write that
// size is dominated by the copy into the kernel anyway. 4 KiB — one page,
// ≈ 0.3 µs of encoding — keeps the lock hold an order of magnitude below
// the syscall it saves and bounds what a batch can pin per frame.
const largeFrame = 4 << 10

// frameSlack is the room queue reserves for a frame beyond its body: the
// GIOP header, the request or reply header and the five QoS contexts come
// to ≈ 170 B.
const frameSlack = 256

// serverFlushPeriod bounds a Write that comes without a deadline of its
// own — every server Write: flushDeadline gives it between one and two
// periods. A peer that stops reading would otherwise pin a lane worker in
// Write for good, and with it every connection that worker flushes next.
// One second is half the client's default request timeout: a reply that
// cannot even enter the socket buffer for that long has no caller left
// waiting for it. (A request's propagated deadline is not used: one that
// has passed — the reply is late anyway — would fail the Write before it
// tried and close a healthy connection.)
const serverFlushPeriod = time.Second

// flushDeadline is the default write deadline for a Write starting at now:
// the end of the following period, so all Writes of one period carry the
// same deadline and the socket is re-armed once per period, not once per
// Write (a SetWriteDeadline per reply would cost every uncontended request
// a timer update, and three allocations on net.Pipe).
func flushDeadline(now time.Time) time.Time {
	return now.Truncate(serverFlushPeriod).Add(2 * serverFlushPeriod)
}

// connWriter is the write half of a connection, client or server side.
// Frames are queued — encoded once, straight into the pending batch —
// and a flush hands everything queued to the kernel in one Write. Every
// queued frame gets a ticket; flush(ticket) returns once that frame has
// been written, by this call or by another goroutine's flush that took
// the frame along, so concurrent callers share a write instead of each
// paying their own, and a caller still returns only when its bytes are in
// the kernel or with the error that stopped them.
//
// Two locks, so callers can queue while a Write is in progress: mu guards
// the pending batch and the ticket counters, wmu is held across Write and
// owns the batch being written. The two batch buffers swap roles at each
// flush and keep their capacity (up to maxPooledWrite), so queueing and
// flushing allocate nothing in steady state.
//
// The first write error is final: the byte stream may have stopped
// mid-frame. Every caller whose frame was in the failed batch, and every
// later one, gets that error, and failed runs exactly once, on the
// goroutine whose Write failed, to tear the connection down.
type connWriter struct {
	nc     net.Conn
	failed func(error)

	mu      sync.Mutex
	pend    []byte // frames queued since the last flush took its batch
	queued  uint64 // tickets issued; a frame's ticket is the count after it
	written uint64 // every ticket up to here reached the kernel, or met err
	err     error

	wmu   sync.Mutex
	out   []byte    // the batch a flush is writing
	armed time.Time // the write deadline nc currently carries
}

// queue encodes one frame with enc (which appends to its argument, as giop
// AppendTo does) and returns the frame's ticket. size is the frame's body
// length. A frame below largeFrame joins the pending batch and is sent by
// the next flush. A large one keeps the shape it has always had: encoded
// outside every lock into a pooled buffer of its own and written on the
// spot, bounded by deadline (as in flush), after whatever was pending — so
// it is never copied under the queue lock and never grows the shared batch;
// wrote reports that Write (a flush of the ticket then has nothing to do).
func (w *connWriter) queue(size int, enc func(dst []byte) []byte, deadline time.Time) (ticket uint64, wrote bool) {
	if size >= largeFrame {
		bufp := getWriteBuf()
		*bufp = enc((*bufp)[:0])
		w.wmu.Lock()
		ticket, wrote, _ = w.write(0, *bufp, deadline)
		w.wmu.Unlock()
		putWriteBuf(bufp)
		return ticket, wrote
	}
	w.mu.Lock()
	if w.err == nil {
		// giop AppendTo grows a full buffer to exactly what its message
		// needs, so a burst of n frames would copy the batch n times; room
		// is made here instead, doubling. frameSlack covers a typical
		// header and contexts — if not, AppendTo still grows the rest.
		if need := len(w.pend) + size + frameSlack; need > cap(w.pend) {
			w.pend = append(make([]byte, 0, max(2*cap(w.pend), need)), w.pend...)
		}
		w.pend = enc(w.pend)
	}
	w.queued++
	ticket = w.queued
	w.mu.Unlock()
	return ticket, false
}

// flush returns once the frame with this ticket has been handed to the
// kernel: at once if an earlier flush took it along, else after writing
// everything queued so far in one Write bounded by deadline — the zero
// time asks for the default bound, flushDeadline of the moment the Write
// starts, which is read once this call owns the socket: however long it
// waited for a Write in progress, its own gets the whole bound. wrote
// reports whether this call performed the Write.
func (w *connWriter) flush(ticket uint64, deadline time.Time) (wrote bool, err error) {
	// A frame that is already out must not wait behind the Write in
	// progress for its successors.
	w.mu.Lock()
	done, err := w.written >= ticket, w.err
	w.mu.Unlock()
	if done || err != nil {
		return false, err
	}
	w.wmu.Lock()
	_, wrote, err = w.write(ticket, nil, deadline)
	w.wmu.Unlock()
	return wrote, err
}

// write, with wmu held, sends the pending batch and then tail, a large
// frame that takes the next ticket. Without a tail it has nothing to do
// when ticket is already written.
func (w *connWriter) write(ticket uint64, tail []byte, deadline time.Time) (last uint64, wrote bool, err error) {
	w.mu.Lock()
	if tail != nil {
		w.queued++
	}
	last = w.queued
	if w.err != nil || (tail == nil && w.written >= ticket) {
		err = w.err
		w.mu.Unlock()
		return last, false, err
	}
	w.pend, w.out = w.out[:0], w.pend
	w.mu.Unlock()

	// A deadline equal to the armed one is not set again: the default bound
	// is quantised, so it re-arms once per period rather than once per
	// flush; a client call's expiry is its own.
	if deadline.IsZero() {
		deadline = flushDeadline(time.Now())
	}
	if !deadline.Equal(w.armed) {
		w.nc.SetWriteDeadline(deadline)
		w.armed = deadline
	}
	if len(w.out) > 0 {
		_, err = w.nc.Write(w.out)
	}
	if err == nil && tail != nil {
		_, err = w.nc.Write(tail)
	}
	if cap(w.out) > maxPooledWrite {
		// A burst of frames grew the batch past what a connection may
		// keep; the next one starts over.
		w.out = nil
	}

	w.mu.Lock()
	w.written = last
	w.err = err
	w.mu.Unlock()
	if err != nil {
		w.failed(err)
	}
	return last, true, err
}
