package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/pubsub"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
	"repro/internal/wire"
)

// Every wire workload is a closed loop — which is what CORBA two-way
// callers are — with client and server in one process over 127.0.0.1
// TCP (loopback), and the standard lane set below. wire.RunLoad is not
// used: it paces with a ticker, and on a small shared host a 200 µs
// sleep returns after about a millisecond, so a paced generator
// measures timer slop rather than the program.

const (
	echoKey = "app/echo"
	// beCallerBase keeps best-effort callers' stamps apart from the timed
	// expedited callers', so the servant knows which ops to span.
	beCallerBase = 1 << 8
)

func standardLanes() []wire.LaneConfig {
	return []wire.LaneConfig{
		{Priority: 0, Workers: 1, QueueLimit: 256},
		{Priority: wire.EFPriority, Workers: 2, QueueLimit: 256},
	}
}

// payload is size seeded bytes; the first 8 are overwritten per op with
// the sequence stamp.
func payload(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func stampOf(body []byte) uint64 {
	if len(body) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(body)
}

func isTimedStamp(stamp uint64) bool { return stamp>>48 < beCallerBase }

// echoOp is one caller's operation: stamp the private request buffer,
// invoke, and check the reply is byte-equal to the request.
func echoOp(inv wire.Invoker, prio int16, template []byte) func(seq uint64) bool {
	body := append([]byte(nil), template...)
	opts := wire.CallOptions{Priority: prio}
	return func(seq uint64) bool {
		binary.BigEndian.PutUint64(body, seq)
		reply, err := inv.Invoke(echoKey, "echo", body, opts)
		return err == nil && bytes.Equal(reply, body)
	}
}

// tracer returns the program Tracer a traced pass switches on.
func (r *rep) tracer() *wire.Tracer {
	if !r.cfg.Traced {
		return nil
	}
	return wire.NewTracer()
}

func sumCounters(reg *telemetry.Registry, name string) float64 {
	var sum float64
	for _, key := range reg.CounterKeys() {
		if n, _ := telemetry.ParseKey(key); n == name {
			sum += reg.CounterByKey(key).Value()
		}
	}
	return sum
}

// clientLayers reads the in-run wire.client.* rows from the registries
// the workload's clients reported into.
func clientLayers(layers map[string]float64, regs ...*telemetry.Registry) {
	for _, reg := range regs {
		layers["wire.client.dials"] += sumCounters(reg, "wire.client.dials")
		layers["wire.client.orphan_replies"] += sumCounters(reg, "wire.client.orphan_replies")
		layers["wire.client.breaker_transitions"] += sumCounters(reg, "wire.client.breaker_transitions")
	}
}

// serverLayers reads the in-run wire.server.* rows from one server.
func serverLayers(layers map[string]float64, srv *wire.Server) {
	reg := srv.Registry()
	be, ef := telemetry.L("lane", "0"), telemetry.L("lane", fmt.Sprint(wire.EFPriority))
	qbe := reg.Histogram("wire.server.queue_ms", be).Summary()
	qef := reg.Histogram("wire.server.queue_ms", ef).Summary()
	layers["wire.server.queue_wait_p50_us.be"] = qbe.P50 * 1e3
	layers["wire.server.queue_wait_p99_us.be"] = qbe.P99 * 1e3
	layers["wire.server.queue_wait_p99_us.ef"] = qef.P99 * 1e3
	layers["wire.server.exec_p50_us"] = reg.Histogram("wire.server.exec_ms", ef).Summary().P50 * 1e3
	for _, lane := range srv.Snapshot().Lanes {
		if lane.Priority == 0 {
			layers["wire.server.served.be"] = float64(lane.Served)
		} else {
			layers["wire.server.served.ef"] = float64(lane.Served)
		}
		layers["wire.server.refused"] += float64(lane.Refused)
		layers["wire.server.deadline_shed"] += float64(lane.Shed)
	}
}

// finishTrace computes the path.* rows and writes the trace file once
// every goroutine feeding the span log and the program tracer stopped.
func (r *rep) finishTrace(res *repResult, tr *wire.Tracer) error {
	if r.spans == nil {
		return nil
	}
	spans := r.spans.all()
	res.Spans = len(spans)
	res.OpMedianUs = pathMetrics(spans, res.Layers)
	if n := r.spans.dropped.Load(); n > 0 {
		return fmt.Errorf("span log full: %d spans dropped", n)
	}
	if r.cfg.TraceOut == "" {
		return nil
	}
	var program []*trace.Span
	if tr != nil {
		program = tr.Collector().Spans()
	}
	return writeSpans(r.cfg.TraceOut, spans, program)
}

// runEcho drives the echo workloads: efCallers timed closed-loop callers
// on the EF band and beCallers untimed ones on the BE band, all against
// a zero-work servant that returns the request body.
func runEcho(cfg repConfig, size, efCallers, beCallers int, warmOps int64) (repResult, error) {
	r := newRep(cfg, warmOps)
	tr := r.tracer()
	srv, err := wire.NewServer(wire.ServerConfig{Lanes: standardLanes(), Tracer: tr})
	if err != nil {
		return repResult{}, err
	}
	srv.Register(echoKey, wire.HandlerFunc(func(req *wire.Request) ([]byte, error) {
		if r.spans != nil && r.phase.Load() == phaseMeasure {
			if stamp := stampOf(req.Body); isTimedStamp(stamp) {
				t := r.sinceEpoch(time.Now())
				r.spans.add(span{Trace: stamp, ID: spanServant, Parent: spanOp,
					Kind: kindServant, Start: t, End: r.sinceEpoch(time.Now())})
			}
		}
		return req.Body, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return repResult{}, err
	}
	cli, err := wire.NewClient(wire.ClientConfig{
		Addr: addr.String(), Bands: []int16{0, wire.EFPriority}, Seed: cfg.Seed, Tracer: tr,
	})
	if err != nil {
		return repResult{}, err
	}

	template := payload(cfg.Seed, size)
	// One call per band before the callers start: concurrent first calls
	// would each dial, and the workload is defined on one connection per
	// band.
	if !echoOp(cli, wire.EFPriority, template)(0) || (beCallers > 0 && !echoOp(cli, 0, template)(0)) {
		return repResult{}, fmt.Errorf("first echo failed")
	}
	var wg sync.WaitGroup
	for i := 0; i < efCallers; i++ {
		r.loop(&wg, i, true, echoOp(cli, wire.EFPriority, template))
	}
	for i := 0; i < beCallers; i++ {
		r.loop(&wg, beCallerBase+i, false, echoOp(cli, 0, template))
	}
	w := r.measure()
	wg.Wait()

	layers := map[string]float64{}
	clientLayers(layers, cli.Registry())
	serverLayers(layers, srv)
	cli.Close()
	srv.Shutdown(2 * time.Second)

	res := r.result(w, layers)
	conns := 1
	if beCallers > 0 {
		conns = 2
	}
	if got := layers["wire.client.dials"]; got != float64(conns) {
		r.fails.add(1, "%s: %v dials, want %d: the run is invalid", cfg.Workload, got, conns)
	}
	if n := layers["wire.client.orphan_replies"] + layers["wire.client.breaker_transitions"]; n != 0 {
		r.fails.add(1, "%s: %v orphan replies or breaker transitions: the run is invalid", cfg.Workload, n)
	}
	res.Failed = r.fails.n
	return res, r.finishTrace(&res, tr)
}

// Pub/sub fan-out shape.
const (
	fanoutSubs    = 8
	fanoutWindow  = 16 // events not yet delivered to every subscriber
	fanoutRing    = 64 // per-event slots; a multiple of the window
	fanoutPayload = 256
	fanoutTopic   = "camera/front"
	fanoutKey     = "pubsub/chan"
)

// fanoutSlot is the per-event state the publisher writes and the
// consumer handlers read: when the publish call started, whether it
// started inside the measured window, and how many deliveries remain.
type fanoutSlot struct {
	start    atomic.Int64
	measured atomic.Bool
	remain   atomic.Int32
}

// runPubSub drives pubsub_fanout: one publisher connection into a
// wire.ChannelHost, eight EF subscribers on one consumer server. An op
// is one delivery; its latency runs from the PublishRemote call's start
// to the consumer handler's entry.
func runPubSub(cfg repConfig) (repResult, error) {
	r := newRep(cfg, 16_000)
	tr := r.tracer()
	template := payload(cfg.Seed, fanoutPayload)

	var slots [fanoutRing]fanoutSlot
	tokens := make(chan struct{}, fanoutWindow) // buffered to the window: a returned token never blocks a handler
	for i := 0; i < fanoutWindow; i++ {
		tokens <- struct{}{}
	}
	var (
		last      [fanoutSubs]atomic.Uint64
		delivered atomic.Int64
		// rec books deliveries; the consumer's handlers share it.
		recMu sync.Mutex
		rec   = r.newRecorder(true)
	)

	// The consumer's EF lane has one worker, not the standard two: two
	// workers draining one lane can enter the handler out of order, and
	// per-subscriber publish order is part of what this workload checks.
	lanes := standardLanes()
	lanes[1].Workers = 1
	consumer, err := wire.NewServer(wire.ServerConfig{Lanes: lanes, Tracer: tr})
	if err != nil {
		return repResult{}, err
	}
	for i := 0; i < fanoutSubs; i++ {
		sub := i
		consumer.Register(fmt.Sprintf("consumer/%d", sub), wire.ConsumerHandler(func(ev pubsub.Event) {
			now := time.Now()
			seq := stampOf(ev.Payload)
			slot := &slots[seq%fanoutRing]
			if !bytes.Equal(ev.Payload[min(8, len(ev.Payload)):], template[8:]) || ev.Topic != fanoutTopic {
				r.fails.add(1, "pubsub_fanout: subscriber %d event %d arrived corrupt", sub, seq)
			}
			// Exactly once, in publish order: each subscriber must see
			// stamps 1, 2, 3, ... with no gap, repeat or swap.
			if prev := last[sub].Swap(seq); seq != prev+1 {
				r.fails.add(1, "pubsub_fanout: subscriber %d got event %d after %d", sub, seq, prev)
			}
			delivered.Add(1)
			switch ph := r.phase.Load(); {
			case ph == phaseWarm:
				r.warmed()
			case ph == phaseMeasure && slot.measured.Load():
				recMu.Lock()
				rec.book(time.Duration(r.sinceEpoch(now) - slot.start.Load()))
				recMu.Unlock()
				if r.spans != nil {
					t := r.sinceEpoch(now)
					r.spans.add(span{Trace: seq, ID: spanDeliver0 + uint64(sub), Parent: spanOp,
						Kind: kindDeliver, Start: t, End: r.sinceEpoch(time.Now())})
				}
			}
			if slot.remain.Add(-1) == 0 {
				tokens <- struct{}{}
			}
		}))
	}
	consumerAddr, err := consumer.Listen("127.0.0.1:0")
	if err != nil {
		return repResult{}, err
	}

	ch := pubsub.New(pubsub.ChannelConfig{Name: "qosperf", Async: true})
	host, err := wire.NewChannelHost(ch, wire.ChannelHostConfig{Tracer: tr})
	if err != nil {
		return repResult{}, err
	}
	hostSrv, err := wire.NewServer(wire.ServerConfig{Lanes: standardLanes(), Tracer: tr})
	if err != nil {
		return repResult{}, err
	}
	hostSrv.Register(fanoutKey, host)
	hostAddr, err := hostSrv.Listen("127.0.0.1:0")
	if err != nil {
		return repResult{}, err
	}
	cli, err := wire.NewClient(wire.ClientConfig{
		Addr: hostAddr.String(), Bands: []int16{0, wire.EFPriority}, Seed: cfg.Seed, Tracer: tr,
	})
	if err != nil {
		return repResult{}, err
	}
	opts := wire.CallOptions{Priority: wire.EFPriority}
	for i := 0; i < fanoutSubs; i++ {
		err := wire.SubscribeRemote(cli, fanoutKey, wire.SubscribeSpec{
			Name: fmt.Sprintf("sub%d", i), Addr: consumerAddr.String(), ConsumerKey: fmt.Sprintf("consumer/%d", i),
			Topic: "camera/**", Priority: wire.EFPriority, Outbox: 256, Policy: pubsub.DropNewest,
		}, opts)
		if err != nil {
			return repResult{}, fmt.Errorf("subscribe %d: %w", i, err)
		}
	}

	var published atomic.Int64
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		body := append([]byte(nil), template...)
		ev := pubsub.Event{Topic: fanoutTopic, Key: "cam0", Priority: wire.EFPriority, Payload: body}
		for seq := uint64(1); ; seq++ {
			<-tokens
			ph := r.phase.Load()
			if ph == phaseStop {
				tokens <- struct{}{}
				return
			}
			slot := &slots[seq%fanoutRing]
			slot.remain.Store(fanoutSubs)
			slot.measured.Store(ph == phaseMeasure)
			binary.BigEndian.PutUint64(body, seq)
			t0 := time.Now()
			slot.start.Store(r.sinceEpoch(t0))
			err := wire.PublishRemote(cli, fanoutKey, ev, opts)
			published.Add(1)
			if err != nil {
				r.fails.add(fanoutSubs, "pubsub_fanout: publish %d: %v", seq, err)
				tokens <- struct{}{}
				continue
			}
			if r.spans != nil && ph == phaseMeasure {
				r.spans.add(span{Trace: seq, ID: spanOp, Kind: kindOp,
					Start: r.sinceEpoch(t0), End: r.sinceEpoch(time.Now())})
			}
		}
	}()

	var depthMax int
	r.tick = func() {
		for _, s := range ch.Snapshot().Subscribers {
			depthMax = max(depthMax, s.Depth)
		}
	}
	w := r.measure()
	// Every published event must still reach all eight subscribers: the
	// publisher stops once it holds a token, then the window drains. A
	// lost delivery never returns its event's token, hence the deadline.
	drain := time.After(3 * time.Second)
	select {
	case <-pubDone:
	case <-drain:
	}
drained:
	for i := 0; i < fanoutWindow; i++ {
		select {
		case <-tokens:
		case <-drain:
			break drained
		}
	}
	if missing := published.Load()*fanoutSubs - delivered.Load(); missing != 0 {
		r.fails.add(max(missing, -missing), "pubsub_fanout: %d deliveries missing (negative: duplicated)", missing)
	}

	layers := map[string]float64{}
	clientLayers(layers, cli.Registry(), ch.Registry())
	serverLayers(layers, consumer)
	snap := ch.Snapshot()
	layers["pubsub.dropped"] = float64(snap.Dropped)
	layers["pubsub.refused"] = float64(snap.Refused)
	for _, s := range snap.Subscribers {
		layers["pubsub.coalesced"] += float64(s.Coalesced)
	}
	layers["pubsub.outbox_depth_max"] = float64(depthMax)
	if n := snap.Dropped + snap.Refused; n != 0 {
		r.fails.add(int64(n), "pubsub_fanout: channel dropped or refused %d events", n)
	}
	cli.Close()
	host.Close()
	ch.Close()
	hostSrv.Shutdown(2 * time.Second)
	consumer.Shutdown(2 * time.Second)

	rec.attempted = published.Load() * fanoutSubs
	res := r.result(w, layers)
	if got := layers["wire.client.dials"]; got != 1+fanoutSubs {
		r.fails.add(1, "pubsub_fanout: %v dials, want %d: the run is invalid", got, 1+fanoutSubs)
	}
	res.Failed = r.fails.n
	return res, r.finishTrace(&res, tr)
}

// runSim drives sim_paper: experiments.Verify passes back to back on
// this goroutine. Every pass must reproduce all 14 claims with the same
// headline numbers as the first pass of the seed.
func runSim(cfg repConfig) (repResult, error) {
	r := newRep(cfg, 1)
	rec := r.newRecorder(true)
	var first string
	pass := func() bool {
		checks := experiments.Verify(experiments.Options{Seed: cfg.Seed})
		var headline string
		ok := len(checks) == 14
		for _, c := range checks {
			ok = ok && c.OK
			headline += c.Detail + "\n"
		}
		if first == "" {
			first = headline
		}
		return ok && headline == first
	}
	// The warm-up is one whole pass, unless the smoke test scaled it away.
	if cfg.WarmScale >= 1 {
		rec.attempted++
		if !pass() {
			r.fails.add(1, "sim_paper: the warm-up pass did not reproduce every claim")
		}
	}
	// The window closes with the pass that crosses cfg.Measure, so every
	// pass in it is whole.
	w := r.measureWhile(func(sample func()) {
		end := time.Now().Add(cfg.Measure)
		for k := 0; k == 0 || time.Now().Before(end); k++ {
			t0 := time.Now()
			ok := pass()
			t1 := time.Now()
			sample()
			rec.attempted++
			if !ok {
				r.fails.add(1, "sim_paper: pass %d did not reproduce every claim with the first pass's numbers", k+1)
				continue
			}
			rec.book(t1.Sub(t0))
			if r.spans != nil {
				r.spans.add(span{Trace: uint64(k + 1), ID: spanOp, Kind: kindOp,
					Start: r.sinceEpoch(t0), End: r.sinceEpoch(t1)})
			}
		}
	})
	res := r.result(w, map[string]float64{})
	// A repetition holds about ten passes: no percentile above the median
	// has ten samples beyond it.
	delete(res.Metrics, "lat_p99_us")
	return res, r.finishTrace(&res, nil)
}
