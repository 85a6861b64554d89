package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Corrupter is implemented by packet payloads that can produce a
// bit-flipped copy of themselves for byte-level fault injection. The
// copy must not alias mutable state of the original — the original may
// still sit in a sender's retransmission buffer. Returning nil means
// the corruption is detectable by the payload's integrity check (a
// checksummed header, an opaque simulated object): the packet is
// destroyed instead of delivered.
type Corrupter interface {
	CorruptCopy(r *rand.Rand) any
}

// FaultProfile configures byte-level fault injection on a link: each
// field is the independent per-packet probability of that fault.
type FaultProfile struct {
	// Corrupt flips bits in the payload. Payloads implementing Corrupter
	// are delivered corrupted (the receiver's parser must cope);
	// anything else is destroyed as a checksum failure.
	Corrupt float64
	// Duplicate delivers the packet twice.
	Duplicate float64
	// Reorder holds the packet back long enough for packets transmitted
	// after it to overtake it.
	Reorder float64
}

func (f FaultProfile) validate() {
	for _, p := range []float64{f.Corrupt, f.Duplicate, f.Reorder} {
		if p < 0 || p > 1 {
			panic("netsim: fault probability out of [0,1]")
		}
	}
}

// Link is one unidirectional network link: an egress queue, a serialising
// transmitter of the configured bandwidth, and a propagation delay.
type Link struct {
	net   *Network
	from  *Node
	to    *Node
	bps   float64
	delay time.Duration
	q     Qdisc

	busy   bool
	txPkt  *Packet // the packet being serialised while busy
	retry  sim.Event
	flight sim.Ring[inFlight] // propagating at the link's own delay, in arrival order

	// The link's three recurring callbacks (kick, txDone, arriveNext),
	// bound once: a closure or a method value built per packet would
	// allocate per packet.
	onRetry, onTxDone, onArrive func()

	// Fault injection
	lossRate float64
	faults   FaultProfile
	down     bool

	// Stats
	txPackets  int64
	lost       int64
	corrupted  int64
	duplicated int64
	reordered  int64
}

// SetLossRate makes the link randomly corrupt (lose) the given fraction
// of transmitted packets — fault injection for robustness tests.
func (l *Link) SetLossRate(p float64) {
	if p < 0 || p > 1 {
		panic("netsim: loss rate out of [0,1]")
	}
	l.lossRate = p
}

// SetFaults installs a byte-level fault-injection profile on the link.
func (l *Link) SetFaults(f FaultProfile) {
	f.validate()
	l.faults = f
}

// SetDown takes the link down (transmission stalls; queued and arriving
// packets wait or overflow the queue) or brings it back up.
func (l *Link) SetDown(down bool) {
	l.down = down
	if !down {
		l.kick()
	}
}

// From returns the transmitting node.
func (l *Link) From() *Node { return l.from }

// To returns the receiving node.
func (l *Link) To() *Node { return l.to }

// Bps returns the link bandwidth in bits per second.
func (l *Link) Bps() float64 { return l.bps }

// Delay returns the propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// Queue returns the egress queueing discipline.
func (l *Link) Queue() Qdisc { return l.q }

func (l *Link) String() string {
	return fmt.Sprintf("link(%s->%s %.1fMbps %v)", l.from.name, l.to.name, l.bps/1e6, l.delay)
}

// enqueue offers a packet to the egress queue and starts the transmitter
// if it is idle.
func (l *Link) enqueue(p *Packet) {
	if tr := l.net.tracer; tr != nil && p.Ctx.Valid() {
		p.hopSpan = tr.StartChild(p.Ctx, "hop "+l.from.name+">"+l.to.name, trace.LayerNetsim)
		p.hopSpan.SetAttr(
			trace.String("dscp", p.DSCP.String()),
			trace.Int("bytes", int64(p.Size)),
		)
	}
	if p.Deadline > 0 && l.net.k.Now() > p.Deadline {
		// Already late: spend no queue space or bandwidth on it.
		l.net.countDrop(p, DropDeadline)
		return
	}
	if !l.q.Enqueue(p) {
		l.net.countDrop(p, DropQueue)
		return
	}
	l.kick()
}

// kick attempts to start transmitting the next packet. A qdisc can be
// non-empty yet ineligible (a shaped reservation waiting for tokens), in
// which case a retry is scheduled for when credit accrues.
func (l *Link) kick() {
	if l.busy || l.down {
		return
	}
	l.retry.Cancel() // a no-op once it has fired
	k := l.net.k
	p, wait := l.q.Dequeue(k.Now())
	if p == nil {
		if wait > 0 {
			l.retry = k.After(wait, l.onRetry)
		}
		return
	}
	l.busy = true
	l.txPkt = p
	if p.hopSpan != nil {
		p.hopSpan.Event("tx-start")
	}
	txTime := time.Duration(float64(p.Size*8) / l.bps * float64(time.Second))
	k.After(txTime, l.onTxDone)
}

// txDone fires when the transmitter has serialised l.txPkt.
func (l *Link) txDone() {
	p := l.txPkt
	l.txPkt = nil
	l.busy = false
	l.txPackets++
	l.transmitFaults(p)
	l.kick()
}

// transmitFaults applies the link's fault injection to a just-serialised
// packet and starts propagation for whatever survives. Random draws
// happen in a fixed order (loss, corrupt, duplicate, reorder) and only
// for configured faults, so scenarios without fault injection consume
// the kernel's random stream exactly as before.
func (l *Link) transmitFaults(p *Packet) {
	k := l.net.k
	if l.lossRate > 0 && k.Rand().Float64() < l.lossRate {
		l.lost++
		l.net.countDrop(p, DropLoss)
		return
	}
	if l.faults.Corrupt > 0 && k.Rand().Float64() < l.faults.Corrupt {
		l.corrupted++
		var flipped any
		if c, ok := p.Payload.(Corrupter); ok {
			flipped = c.CorruptCopy(k.Rand())
		}
		if flipped == nil {
			// Integrity-checked payload: the receiver would discard it,
			// so the packet dies on the wire.
			l.net.countDrop(p, DropCorrupt)
			return
		}
		// The packet carries the corrupted copy on; the original payload
		// may sit in a sender's retransmission buffer and stays intact.
		p.Payload = flipped
		if p.hopSpan != nil {
			p.hopSpan.Event("corrupt")
		}
	}
	if l.faults.Duplicate > 0 && k.Rand().Float64() < l.faults.Duplicate {
		l.duplicated++
		dup := l.net.packet()
		*dup = *p
		dup.hopSpan = nil // the duplicate travels outside the trace
		l.propagate(dup, l.delay)
	}
	delay := l.delay
	if l.faults.Reorder > 0 && k.Rand().Float64() < l.faults.Reorder {
		l.reordered++
		// Hold the packet back past at least two propagation delays (plus
		// slack for zero-delay links) so later transmissions overtake it.
		extra := 2*l.delay + time.Millisecond
		if l.delay > 0 {
			extra += time.Duration(k.Rand().Int63n(int64(l.delay)))
		}
		delay += extra
	}
	l.propagate(p, delay)
}

// propagate schedules the packet's arrival at the far node after delay,
// destroying it if that node crash-stops while it is in flight.
func (l *Link) propagate(p *Packet, delay time.Duration) {
	f := inFlight{p, l.to.epoch}
	if delay != l.delay {
		// A held-back packet arrives out of turn.
		l.net.k.After(delay, func() { l.arrive(f) })
		return
	}
	// Packets sent at one delay arrive in the order sent, so the n-th
	// arrival event belongs to the n-th packet queued here.
	l.flight.Push(f)
	l.net.k.After(delay, l.onArrive)
}

// inFlight is a packet on the wire and the receiver's crash epoch at
// the time it left.
type inFlight struct {
	p     *Packet
	epoch int
}

func (l *Link) arriveNext() { l.arrive(l.flight.Pop()) }

func (l *Link) arrive(f inFlight) {
	p := f.p
	if l.to.epoch != f.epoch {
		// The receiver crashed (and possibly rebooted) mid-flight;
		// its pre-crash receive path is gone.
		l.net.countDrop(p, DropTransitDown)
		return
	}
	if p.hopSpan != nil {
		p.hopSpan.Finish()
		p.hopSpan = nil
	}
	l.to.receive(p)
}
