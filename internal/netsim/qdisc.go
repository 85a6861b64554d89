package netsim

import (
	"time"

	"repro/internal/sim"
)

// Qdisc is an egress queueing discipline. Enqueue may reject (tail drop);
// Dequeue returns the next packet to transmit, or (nil, 0) when empty, or
// (nil, d) when packets are queued but ineligible for d more time (a
// shaped reservation waiting for token-bucket credit).
type Qdisc interface {
	Enqueue(p *Packet) bool
	Dequeue(now sim.Time) (*Packet, time.Duration)
	// Backlog reports queued bytes across all internal queues.
	Backlog() int
	// Limit reports the byte bound of the best-effort queue (per flow
	// where the discipline queues per flow).
	Limit() int
	// Clone returns an empty qdisc with the same configuration, used
	// when one config is applied to both directions of a connection.
	Clone() Qdisc
}

// pktQueue is a byte-limited FIFO building block.
type pktQueue struct {
	pkts  sim.Ring[*Packet]
	bytes int
	limit int // bytes; 0 = unbounded
}

func (q *pktQueue) push(p *Packet) bool {
	if q.limit > 0 && q.bytes+p.Size > q.limit {
		return false
	}
	q.pkts.Push(p)
	q.bytes += p.Size
	return true
}

func (q *pktQueue) pop() *Packet {
	if q.pkts.Len() == 0 {
		return nil
	}
	p := q.pkts.Pop()
	q.bytes -= p.Size
	return p
}

func (q *pktQueue) head() *Packet {
	if q.pkts.Len() == 0 {
		return nil
	}
	return q.pkts.At(0)
}

// FIFO is a single byte-limited tail-drop queue: the plain best-effort
// discipline of an unmanaged router port.
type FIFO struct {
	q pktQueue
}

// NewFIFO returns a FIFO holding at most limit bytes.
func NewFIFO(limit int) *FIFO { return &FIFO{q: pktQueue{limit: limit}} }

var _ Qdisc = (*FIFO)(nil)

// Enqueue implements Qdisc.
func (f *FIFO) Enqueue(p *Packet) bool { return f.q.push(p) }

// Dequeue implements Qdisc.
func (f *FIFO) Dequeue(sim.Time) (*Packet, time.Duration) { return f.q.pop(), 0 }

// Backlog implements Qdisc.
func (f *FIFO) Backlog() int { return f.q.bytes }

// Limit implements Qdisc.
func (f *FIFO) Limit() int { return f.q.limit }

// Clone implements Qdisc.
func (f *FIFO) Clone() Qdisc { return NewFIFO(f.q.limit) }

// DRR is a deficit-round-robin fair queue over flows: each active flow
// gets an equal share of the link regardless of its offered load. This is
// the per-flow fairness a Linux SFQ-style best-effort class provides, and
// it is what lets a frame-filtered low-rate stream survive heavy
// multi-flow cross traffic in the Table 1 experiments.
type DRR struct {
	flows     []*drrFlow       // indexed by FlowID
	active    sim.Ring[FlowID] // round-robin order of backlogged flows
	quantum   int              // bytes added to a flow's deficit per round
	perFlow   int              // byte limit per flow queue
	totalByte int
	red       uint64 // xorshift state for random early drop
}

type drrFlow struct {
	q       pktQueue
	deficit int
	queued  bool
}

// NewDRR returns a deficit-round-robin discipline with the given per-round
// quantum (bytes) and per-flow queue byte limit. Flow queues apply RED-
// style random early drop above half occupancy, decorrelating losses the
// way a router's active queue management does.
func NewDRR(quantum, perFlowLimit int) *DRR {
	return &DRR{
		quantum: quantum,
		perFlow: perFlowLimit,
		red:     0x9E3779B97F4A7C15,
	}
}

var _ Qdisc = (*DRR)(nil)

// rand01 returns a deterministic pseudo-random value in [0, 1).
func (d *DRR) rand01() float64 {
	d.red ^= d.red << 13
	d.red ^= d.red >> 7
	d.red ^= d.red << 17
	return float64(d.red>>11) / float64(1<<53)
}

// Enqueue implements Qdisc.
func (d *DRR) Enqueue(p *Packet) bool {
	d.flows = atFlow(d.flows, p.Flow)
	fl := d.flows[p.Flow]
	if fl == nil {
		fl = &drrFlow{q: pktQueue{limit: d.perFlow}}
		d.flows[p.Flow] = fl
	}
	// Random early drop: linear ramp from 0 at half occupancy to 1 at
	// the limit.
	if d.perFlow > 0 {
		occ := float64(fl.q.bytes+p.Size) / float64(d.perFlow)
		if occ > 0.5 && d.rand01() < (occ-0.5)*2 {
			return false
		}
	}
	if !fl.q.push(p) {
		return false
	}
	d.totalByte += p.Size
	if !fl.queued {
		fl.queued = true
		d.active.Push(p.Flow)
	}
	return true
}

// Dequeue implements Qdisc.
func (d *DRR) Dequeue(sim.Time) (*Packet, time.Duration) {
	for d.active.Len() > 0 {
		id := d.active.At(0)
		fl := d.flows[id]
		head := fl.q.head()
		if head == nil {
			// Flow drained; drop it from the rotation.
			fl.queued = false
			fl.deficit = 0
			d.active.Pop()
			continue
		}
		if fl.deficit < head.Size {
			// Not enough credit: move to the back of the rotation with a
			// fresh quantum.
			fl.deficit += d.quantum
			d.active.Push(d.active.Pop())
			continue
		}
		p := fl.q.pop()
		fl.deficit -= p.Size
		d.totalByte -= p.Size
		if fl.q.head() == nil {
			fl.queued = false
			fl.deficit = 0
			d.active.Pop()
		}
		return p, 0
	}
	return nil, 0
}

// Backlog implements Qdisc.
func (d *DRR) Backlog() int { return d.totalByte }

// Limit implements Qdisc.
func (d *DRR) Limit() int { return d.perFlow }

// Clone implements Qdisc.
func (d *DRR) Clone() Qdisc { return NewDRR(d.quantum, d.perFlow) }

// DiffServ is a three-band strict-priority discipline implementing the
// per-hop behaviours the experiments use: an expedited band (EF plus CS6
// control traffic), an assured-forwarding band (any AF codepoint), and a
// best-effort band. Higher bands are always served first. The best-
// effort band is an inner qdisc, so fair queueing and plain FIFO
// variants compose.
type DiffServ struct {
	ef pktQueue
	af pktQueue
	be Qdisc
}

// NewDiffServ returns a DiffServ discipline whose EF and AF queues each
// hold efLimit bytes, over the given best-effort inner discipline.
func NewDiffServ(efLimit int, be Qdisc) *DiffServ {
	return &DiffServ{
		ef: pktQueue{limit: efLimit},
		af: pktQueue{limit: efLimit},
		be: be,
	}
}

var _ Qdisc = (*DiffServ)(nil)

func isExpedited(d DSCP) bool { return d == DSCPEF || d == DSCPCS6 }

func isAssured(d DSCP) bool {
	switch d {
	case DSCPAF11, DSCPAF21, DSCPAF31, DSCPAF41:
		return true
	default:
		return false
	}
}

// Enqueue implements Qdisc.
func (ds *DiffServ) Enqueue(p *Packet) bool {
	switch {
	case isExpedited(p.DSCP):
		return ds.ef.push(p)
	case isAssured(p.DSCP):
		return ds.af.push(p)
	default:
		return ds.be.Enqueue(p)
	}
}

// Dequeue implements Qdisc.
func (ds *DiffServ) Dequeue(now sim.Time) (*Packet, time.Duration) {
	if p := ds.ef.pop(); p != nil {
		return p, 0
	}
	if p := ds.af.pop(); p != nil {
		return p, 0
	}
	return ds.be.Dequeue(now)
}

// Backlog implements Qdisc.
func (ds *DiffServ) Backlog() int { return ds.ef.bytes + ds.af.bytes + ds.be.Backlog() }

// Limit implements Qdisc.
func (ds *DiffServ) Limit() int { return ds.be.Limit() }

// Clone implements Qdisc.
func (ds *DiffServ) Clone() Qdisc { return NewDiffServ(ds.ef.limit, ds.be.Clone()) }

// IntServ layers guaranteed-service flow queues over an inner discipline.
// Reserved flows (installed by RSVP signalling) are served first — each
// metered to its reserved rate by a token bucket — so they are isolated
// from all other traffic; everything else falls through to the inner
// qdisc (typically a DiffServ over DRR stack). The scheduler is work
// conserving: when the inner bands are idle, reserved flows may borrow
// spare bandwidth beyond their reservation, so an under-utilised link
// never shapes a flow below what the wire could carry.
type IntServ struct {
	inner    Qdisc
	reserved map[FlowID]*gflow
	order    []FlowID // deterministic service order
}

// gflow is one reserved flow: its queue, metered in bytes by a bucket
// at the reserved rate.
type gflow struct {
	tb sim.Bucket
	q  pktQueue
}

// NewIntServ wraps inner with reservation support.
func NewIntServ(inner Qdisc) *IntServ {
	return &IntServ{inner: inner, reserved: make(map[FlowID]*gflow)}
}

var _ Qdisc = (*IntServ)(nil)
var _ ReservationCapable = (*IntServ)(nil)

// ReservationCapable is implemented by qdiscs that can host RSVP-installed
// per-flow guaranteed-rate state.
type ReservationCapable interface {
	InstallFlow(f FlowID, rateBps float64, burstBytes, limitBytes int, now sim.Time)
	RemoveFlow(f FlowID)
	ReservedRate() float64 // total reserved bits per second
}

// InstallFlow implements ReservationCapable.
func (is *IntServ) InstallFlow(f FlowID, rateBps float64, burstBytes, limitBytes int, now sim.Time) {
	if _, ok := is.reserved[f]; !ok {
		is.order = append(is.order, f)
	}
	is.reserved[f] = &gflow{
		tb: sim.NewBucket(rateBps/8, float64(burstBytes), now),
		q:  pktQueue{limit: limitBytes},
	}
}

// RemoveFlow implements ReservationCapable.
func (is *IntServ) RemoveFlow(f FlowID) {
	delete(is.reserved, f)
	for i, id := range is.order {
		if id == f {
			is.order = append(is.order[:i], is.order[i+1:]...)
			break
		}
	}
}

// ReservedRate implements ReservationCapable.
func (is *IntServ) ReservedRate() float64 {
	total := 0.0
	for _, g := range is.reserved {
		total += g.tb.Rate() * 8
	}
	return total
}

// Enqueue implements Qdisc.
func (is *IntServ) Enqueue(p *Packet) bool {
	if g, ok := is.reserved[p.Flow]; ok {
		return g.q.push(p)
	}
	return is.inner.Enqueue(p)
}

// Dequeue implements Qdisc.
func (is *IntServ) Dequeue(now sim.Time) (*Packet, time.Duration) {
	// In-profile reserved traffic has absolute priority.
	for _, id := range is.order {
		g := is.reserved[id]
		head := g.q.head()
		if head == nil {
			continue
		}
		if g.tb.Take(now, float64(head.Size)) {
			return g.q.pop(), 0
		}
	}
	// Then the inner bands (EF / AF / best effort).
	if p, wait := is.inner.Dequeue(now); p != nil {
		return p, wait
	}
	// Finally, out-of-profile reserved traffic borrows idle bandwidth
	// (work conservation); borrowed sends do not consume tokens, so the
	// guarantee is unaffected.
	for _, id := range is.order {
		g := is.reserved[id]
		if g.q.head() != nil {
			return g.q.pop(), 0
		}
	}
	return nil, 0
}

// Backlog implements Qdisc.
func (is *IntServ) Backlog() int {
	total := is.inner.Backlog()
	for _, g := range is.reserved {
		total += g.q.bytes
	}
	return total
}

// Limit implements Qdisc.
func (is *IntServ) Limit() int { return is.inner.Limit() }

// Clone implements Qdisc.
func (is *IntServ) Clone() Qdisc { return NewIntServ(is.inner.Clone()) }
