// Package chaos is the fault-injection plane for the real-socket wire
// stack: a byte-level TCP proxy that sits between a wire client and a
// wire server and tortures the connection the way real networks do —
// added latency, bandwidth throttling, fragmented writes, corrupted
// bytes, abrupt RSTs, half-open blackholes (the connection accepts but
// nothing ever answers), and full endpoint kills with later restarts.
//
// Faults run from a seeded, scripted schedule (offsets from Start), so
// a chaos run is reproducible: the same seed and schedule produce the
// same fault windows, and the soak harness (soak.go) asserts hard
// invariants — at-most-once execution, no silent losses, bounded
// failover recovery — against them. Every fault boundary is observable
// as a chaos_* record on the events bus, so injected fault timelines
// line up with the failover and breaker activity they provoke.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/sim"
)

// FaultKind names one fault class the proxy can inject.
type FaultKind string

const (
	// FaultLatency adds a fixed delay to every forwarded chunk.
	FaultLatency FaultKind = "latency"
	// FaultThrottle caps forwarding bandwidth (bytes/second).
	FaultThrottle FaultKind = "throttle"
	// FaultPartial fragments writes into tiny chunks with pauses —
	// the torn-frame case GIOP readers must reassemble.
	FaultPartial FaultKind = "partial"
	// FaultCorrupt flips one byte in each forwarded chunk's leading
	// GIOP-header window with probability Prob — structural corruption
	// the reader must surface as a classified failure, never misparse.
	FaultCorrupt FaultKind = "corrupt"
	// FaultRST abruptly resets every established connection at the
	// window start (Duration is ignored; it is an instant, not a state).
	FaultRST FaultKind = "rst"
	// FaultBlackhole swallows all bytes in both directions while
	// keeping connections open and accepting new ones — the half-open
	// failure a dial cannot detect, only a deadline or health probe can.
	FaultBlackhole FaultKind = "blackhole"
	// FaultKill closes the listener and every connection for the window
	// (dials are refused), then restarts the listener on the same
	// address when it ends — a process crash plus recovery.
	FaultKill FaultKind = "kill"
)

// Fault is one scheduled fault window.
type Fault struct {
	Kind FaultKind
	// At is the window start, relative to Proxy.Start.
	At time.Duration
	// Duration is the window length (ignored for FaultRST).
	Duration time.Duration

	// Latency is the per-chunk delay for FaultLatency.
	Latency time.Duration
	// Bps is the bandwidth cap for FaultThrottle (bytes/second).
	Bps int
	// Chunk is the max write size for FaultPartial (default 3 bytes).
	Chunk int
	// Prob is the per-chunk corruption probability for FaultCorrupt
	// (default 1.0: every chunk loses one byte to a flip).
	Prob float64
}

// Config configures a Proxy.
type Config struct {
	// Listen is the proxy's own address (default "127.0.0.1:0").
	Listen string
	// Target is the upstream endpoint every accepted connection is
	// piped to (required).
	Target string
	// Schedule is the scripted fault sequence, applied automatically
	// after Start. Faults may overlap; each kind's latest window wins.
	Schedule []Fault
	// Seed fixes the corruption byte/offset stream (0 = 1).
	Seed int64
	// Bus, when set, receives chaos_start / chaos_stop records.
	Bus *events.Bus
	// Name labels records and spans (default "chaos").
	Name string
}

// state is the merged live fault state the pumps consult per chunk.
type state struct {
	latency   time.Duration
	bps       int
	chunk     int
	corrupt   float64
	blackhole bool
}

// Proxy is the chaos TCP proxy. Start it, point a wire client at
// Addr(), and the scheduled faults play out on the wall clock.
type Proxy struct {
	cfg  Config
	name string

	mu     sync.Mutex
	ln     net.Listener
	addr   string
	killed bool
	st     state
	conns  map[net.Conn]struct{}
	rnd    *rand.Rand
	timers []*time.Timer
	closed bool

	wg sync.WaitGroup
}

// New creates a proxy; Start arms it.
func New(cfg Config) (*Proxy, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("chaos: proxy needs a Target")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Name == "" {
		cfg.Name = "chaos"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Proxy{
		cfg:   cfg,
		name:  cfg.Name,
		conns: make(map[net.Conn]struct{}),
		rnd:   rand.New(rand.NewSource(seed)),
	}, nil
}

// Start binds the listener, launches the accept loop and arms the
// schedule's timers.
func (p *Proxy) Start() error {
	ln, err := net.Listen("tcp", p.cfg.Listen)
	if err != nil {
		return fmt.Errorf("chaos: listen %s: %w", p.cfg.Listen, err)
	}
	p.mu.Lock()
	p.ln = ln
	p.addr = ln.Addr().String()
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	for i := range p.cfg.Schedule {
		p.arm(p.cfg.Schedule[i])
	}
	return nil
}

// Addr returns the proxy's listen address (valid after Start).
func (p *Proxy) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// Close stops the schedule, the listener and every connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, t := range p.timers {
		t.Stop()
	}
	p.timers = nil
	p.closeLocked()
	p.mu.Unlock()
	p.wg.Wait()
}

// closeLocked tears down listener and conns; callers hold p.mu.
func (p *Proxy) closeLocked() {
	if p.ln != nil {
		p.ln.Close()
		p.ln = nil
	}
	for nc := range p.conns {
		abort(nc)
		delete(p.conns, nc)
	}
}

// Inject applies one fault now, for its Duration (At is ignored) —
// the manual-control path the soak harness and qoschaos REPL use.
func (p *Proxy) Inject(f Fault) {
	f.At = 0
	p.arm(f)
}

// Kill closes the listener and all connections until Restart — the
// imperative form of FaultKill with no scheduled end.
func (p *Proxy) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.killLocked()
}

// Restart re-binds the listener on the same address after a kill.
func (p *Proxy) Restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restartLocked()
}

func (p *Proxy) killLocked() {
	if p.killed || p.closed {
		return
	}
	p.killed = true
	p.closeLocked()
}

func (p *Proxy) restartLocked() error {
	if !p.killed || p.closed {
		return nil
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return fmt.Errorf("chaos: restart %s: %w", p.addr, err)
	}
	p.killed = false
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return nil
}

// arm schedules fault f's start and end. A fault with At <= 0 begins
// synchronously, so Inject takes effect before arm returns.
func (p *Proxy) arm(f Fault) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	if f.Kind != FaultRST && f.Duration > 0 {
		p.timers = append(p.timers, time.AfterFunc(f.At+f.Duration, func() { p.end(f) }))
	}
	if f.At > 0 {
		p.timers = append(p.timers, time.AfterFunc(f.At, func() { p.begin(f) }))
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.begin(f)
}

// begin applies fault f and records the window start.
func (p *Proxy) begin(f Fault) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	switch f.Kind {
	case FaultLatency:
		p.st.latency = f.Latency
	case FaultThrottle:
		p.st.bps = f.Bps
	case FaultPartial:
		p.st.chunk = f.Chunk
		if p.st.chunk <= 0 {
			p.st.chunk = 3
		}
	case FaultCorrupt:
		p.st.corrupt = f.Prob
		if p.st.corrupt <= 0 {
			p.st.corrupt = 1
		}
	case FaultBlackhole:
		p.st.blackhole = true
	case FaultRST:
		for nc := range p.conns {
			abort(nc)
			delete(p.conns, nc)
		}
	case FaultKill:
		p.killLocked()
	}
	p.mu.Unlock()
	p.record("chaos_start", f)
}

// end clears fault f's contribution and records the window end.
func (p *Proxy) end(f Fault) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	switch f.Kind {
	case FaultLatency:
		p.st.latency = 0
	case FaultThrottle:
		p.st.bps = 0
	case FaultPartial:
		p.st.chunk = 0
	case FaultCorrupt:
		p.st.corrupt = 0
	case FaultBlackhole:
		p.st.blackhole = false
	case FaultKill:
		if err := p.restartLocked(); err != nil {
			p.mu.Unlock()
			p.record("chaos_restart_failed", f)
			return
		}
	}
	p.mu.Unlock()
	p.record("chaos_stop", f)
}

// record publishes one fault-boundary record.
func (p *Proxy) record(event string, f Fault) {
	if p.cfg.Bus != nil {
		p.cfg.Bus.PublishAt(sim.Wall.Now(), events.KindChaos, p.name,
			events.F("event", event),
			events.F("fault", string(f.Kind)),
			events.F("window", f.Duration.String()),
		)
	}
}

// acceptLoop pipes each accepted connection to the target through the
// fault state.
func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.cfg.Target)
		if err != nil {
			nc.Close()
			continue
		}
		p.mu.Lock()
		if p.closed || p.killed {
			p.mu.Unlock()
			nc.Close()
			up.Close()
			continue
		}
		p.conns[nc] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(nc, up)
		go p.pump(up, nc)
	}
}

// pump forwards src→dst chunk by chunk, consulting the live fault
// state before each delivery.
func (p *Proxy) pump(src, dst net.Conn) {
	defer p.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		p.mu.Lock()
		delete(p.conns, src)
		delete(p.conns, dst)
		p.mu.Unlock()
	}()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.deliver(dst, buf[:n]) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// deliver applies the current fault state to one chunk and writes it.
func (p *Proxy) deliver(dst net.Conn, b []byte) bool {
	p.mu.Lock()
	st := p.st
	if st.corrupt > 0 && p.rnd.Float64() < st.corrupt {
		// Flip one seeded-random byte in a copy (the shared read buffer
		// must not keep the flip across iterations), confined to the
		// chunk's leading GIOP-header-sized window: structural corruption
		// the peer is guaranteed to detect — magic, version, flags or
		// length — rather than a payload flip GIOP cannot checksum.
		c := make([]byte, len(b))
		copy(c, b)
		window := len(c)
		if window > 12 {
			window = 12
		}
		c[p.rnd.Intn(window)] ^= 0xFF
		b = c
	}
	p.mu.Unlock()

	if st.blackhole {
		// Swallow silently; the connection stays half-open.
		return true
	}
	if st.latency > 0 {
		time.Sleep(st.latency)
	}
	if st.bps > 0 {
		time.Sleep(time.Duration(float64(len(b)) / float64(st.bps) * float64(time.Second)))
	}
	if st.chunk > 0 {
		for len(b) > 0 {
			n := st.chunk
			if n > len(b) {
				n = len(b)
			}
			if _, err := dst.Write(b[:n]); err != nil {
				return false
			}
			b = b[n:]
			time.Sleep(time.Millisecond)
		}
		return true
	}
	_, err := dst.Write(b)
	return err == nil
}

// abort closes nc as abruptly as the transport allows: for TCP,
// linger 0 turns the close into an RST instead of an orderly FIN.
func abort(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}
