package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/breaker"
	"repro/internal/cdr"
	"repro/internal/experiments"
	"repro/internal/giop"
	"repro/internal/pubsub"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
	"repro/internal/wire"
)

// The isolated per-layer rows: each layer's exported functions timed
// alone in a tight loop, reporting ns, allocations and bytes per call.
// Layer = module name; .64 / .64k is the body size.

// cost is what one batch of n calls consumed.
type cost struct {
	d       time.Duration
	mallocs uint64
	bytes   uint64
}

// timed brackets f with the clock and the allocator's counters. The
// counters are process-wide, so goroutines a loop owns (a responder, a
// server's workers) are part of its bill, as they are in a real run.
func timed(f func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{d, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
}

// perCall is what one call costs: the fastest of a few batches for
// time (interference only ever slows a batch down), the median for the
// allocator's counts.
type perCall struct{ ns, allocs, bytes float64 }

// micro sizes a batch to about budget/4 and runs five of them. batch
// runs n calls and returns what they cost, so it can keep its own
// set-up outside the bracket.
func micro(budget time.Duration, batch func(n int) cost) perCall {
	n := 1
	for {
		c := batch(n)
		if c.d >= budget/4 || n >= 1<<22 {
			break
		}
		grow := 8.0
		if c.d > 0 {
			grow = min(grow, 1.2*float64(budget/4)/float64(c.d))
		}
		n = max(n+1, int(float64(n)*grow))
	}
	var ns, allocs, bs []float64
	for i := 0; i < 5; i++ {
		c := batch(n)
		ns = append(ns, float64(c.d)/float64(n))
		allocs = append(allocs, float64(c.mallocs)/float64(n))
		bs = append(bs, float64(c.bytes)/float64(n))
	}
	return perCall{slices.Min(ns), median(allocs), median(bs)}
}

// loop is the common case: the whole batch is calls to f.
func loop(budget time.Duration, f func()) perCall {
	return micro(budget, func(n int) cost {
		return timed(func() {
			for i := 0; i < n; i++ {
				f()
			}
		})
	})
}

// sink keeps results alive so the compiler cannot drop the calls.
var sink any

var bodySizes = []struct {
	suffix string
	size   int
}{{".64", 64}, {".64k", 64 << 10}}

// standardContexts are the three service contexts every invocation
// carries: priority, timestamp, deadline.
func standardContexts() []giop.ServiceContext {
	now := time.Now().UnixNano()
	return []giop.ServiceContext{
		giop.PriorityContext(wire.EFPriority, cdr.BigEndian),
		giop.TimestampContext(now, cdr.BigEndian),
		giop.DeadlineContext(now+int64(2*time.Second), cdr.BigEndian),
	}
}

// echoRequest is the request an echo caller sends, plus extra contexts.
func echoRequest(body []byte, extra ...giop.ServiceContext) *giop.Request {
	return &giop.Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte(echoKey),
		Operation: "echo", ServiceContexts: append(standardContexts(), extra...), Body: body}
}

// requestIDOffset is where GIOP 1.2 Request and Reply frames carry the
// request id: the first field after the 12-byte header.
const requestIDOffset = giop.HeaderSize

// pipeClient returns a wire.Client whose one connection is a net.Pipe
// served by serve.
func pipeClient(serve func(net.Conn)) (*wire.Client, error) {
	return wire.NewClient(wire.ClientConfig{
		Addr:  "pipe",
		Bands: []int16{0, wire.EFPriority},
		Dial: func() (net.Conn, error) {
			cliEnd, srvEnd := net.Pipe()
			go serve(srvEnd)
			return cliEnd, nil
		},
	})
}

// cannedReplies is the bench-owned responder the isolated client rows
// run against: it answers every request frame with a pre-marshalled
// reply whose request id it patches, doing no decoding of its own.
func cannedReplies(body []byte) func(net.Conn) {
	return func(nc net.Conn) {
		defer nc.Close()
		reply := (&giop.Reply{Status: giop.StatusNoException, Body: body}).Marshal(cdr.BigEndian)
		br := bufio.NewReaderSize(nc, 32<<10)
		var scratch []byte
		for {
			frame, err := giop.ReadFrame(br, 0, scratch)
			if err != nil {
				return
			}
			scratch = frame[:0]
			copy(reply[requestIDOffset:requestIDOffset+4], frame[requestIDOffset:requestIDOffset+4])
			if _, err := nc.Write(reply); err != nil {
				return
			}
		}
	}
}

// discard is the responder for one-way pushes: read and drop.
func discard(nc net.Conn) {
	defer nc.Close()
	_, _ = io.Copy(io.Discard, nc) // ends when the client closes the pipe
}

// runLayers measures every isolated row. budget is the time one loop
// may take; the smoke test passes a few milliseconds.
func runLayers(budget time.Duration, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	set := func(name string, v float64) { out[name] = v }

	for _, bs := range bodySizes {
		body := payload(seed, bs.size)

		// cdr: the request-shaped sequence of primitives giop issues.
		enc := loop(budget, func() {
			e := cdr.NewEncoder(cdr.BigEndian)
			e.PutULong(7)
			e.PutString("echo")
			e.PutOctetSeq(body)
			sink = e.Bytes()
		})
		e := cdr.NewEncoder(cdr.BigEndian)
		e.PutULong(7)
		e.PutString("echo")
		e.PutOctetSeq(body)
		encoded := e.Bytes()
		var decodeErr error
		dec := loop(budget, func() {
			d := cdr.NewDecoder(encoded, cdr.BigEndian)
			_, err1 := d.ULong()
			_, err2 := d.String()
			b, err3 := d.OctetSeq()
			if err1 != nil || err2 != nil || err3 != nil || len(b) != len(body) {
				decodeErr = fmt.Errorf("cdr decode%s: %v %v %v", bs.suffix, err1, err2, err3)
			}
			sink = b
		})
		if decodeErr != nil {
			return nil, decodeErr
		}
		set("cdr.encode_ns"+bs.suffix, enc.ns)
		set("cdr.decode_ns"+bs.suffix, dec.ns)

		// giop: marshal, frame and decode one request; marshal one reply.
		req := echoRequest(body)
		reqM := loop(budget, func() { sink = req.Marshal(cdr.BigEndian) })
		rep := &giop.Reply{RequestID: 7, Status: giop.StatusNoException, Body: body}
		repM := loop(budget, func() { sink = rep.Marshal(cdr.BigEndian) })
		frame := req.Marshal(cdr.BigEndian)
		rd := bytes.NewReader(frame)
		scratch := make([]byte, 0, len(frame))
		var frameErr error
		readF := loop(budget, func() {
			rd.Reset(frame)
			if _, err := giop.ReadFrame(rd, 0, scratch); err != nil {
				frameErr = err
			}
		})
		decF := loop(budget, func() {
			m, err := giop.Decode(frame)
			if err != nil {
				frameErr = err
			}
			sink = m
		})
		if frameErr != nil {
			return nil, fmt.Errorf("giop frame%s: %w", bs.suffix, frameErr)
		}
		set("giop.request_marshal_ns"+bs.suffix, reqM.ns)
		set("giop.reply_marshal_ns"+bs.suffix, repM.ns)
		set("giop.readframe_ns"+bs.suffix, readF.ns)
		set("giop.decode_ns"+bs.suffix, decF.ns)

		// wire.client alone: Invoke over a pipe against canned replies.
		cli, err := pipeClient(cannedReplies(body))
		if err != nil {
			return nil, err
		}
		var invokeErr error
		opts := wire.CallOptions{Priority: wire.EFPriority}
		inv := loop(budget, func() {
			reply, err := cli.Invoke(echoKey, "echo", body, opts)
			if err != nil || len(reply) != len(body) {
				invokeErr = fmt.Errorf("isolated invoke%s: %d bytes, %v", bs.suffix, len(reply), err)
			}
		})
		cli.Close()
		if invokeErr != nil {
			return nil, invokeErr
		}

		// wire.server alone: a pre-marshalled frame into ServeConn, timed
		// until the reply frame has been read back.
		srv, err := wire.NewServer(wire.ServerConfig{Lanes: standardLanes()})
		if err != nil {
			return nil, err
		}
		srv.Register(echoKey, wire.HandlerFunc(func(req *wire.Request) ([]byte, error) { return req.Body, nil }))
		serve, closeServe := serveLoop(srv)
		var serveErr error
		srvC := loop(budget, func() {
			if err := serve(frame); err != nil {
				serveErr = err
			}
		})
		if bs.size == 64 {
			// The same with an FT request context, so every request passes
			// the at-most-once dedup admit; the retention id is patched in
			// place to make each request a first sighting.
			a := echoRequest(body, giop.FTRequestContext(1, 1, 0, cdr.BigEndian)).Marshal(cdr.BigEndian)
			b := echoRequest(body, giop.FTRequestContext(1, 1, 0xFFFFFFFF, cdr.BigEndian)).Marshal(cdr.BigEndian)
			at := 0
			for at < len(a) && a[at] == b[at] {
				at++
			}
			if at+4 > len(a) {
				return nil, fmt.Errorf("FT retention id not found in the request frame")
			}
			retention := uint32(0)
			ft := loop(budget, func() {
				retention++
				binary.BigEndian.PutUint32(a[at:], retention)
				if err := serve(a); err != nil {
					serveErr = err
				}
			})
			set("wire.server.ft_serve_ns.64", ft.ns)
		}
		closeServe()
		srv.Shutdown(time.Second)
		if serveErr != nil {
			return nil, fmt.Errorf("isolated serve%s: %w", bs.suffix, serveErr)
		}

		if bs.size == 64 {
			set("cdr.encode_allocs.64", enc.allocs)
			set("giop.request_marshal_allocs.64", reqM.allocs)
			set("giop.decode_allocs.64", decF.allocs)
			set("wire.client.invoke_ns.64", inv.ns)
			set("wire.client.invoke_allocs.64", inv.allocs)
			set("wire.server.serve_ns.64", srvC.ns)
			set("wire.server.serve_allocs.64", srvC.allocs)
		} else {
			set("cdr.encode_bytes.64k", enc.bytes)
			set("cdr.decode_bytes.64k", dec.bytes)
			set("giop.request_marshal_bytes.64k", reqM.bytes)
			set("giop.decode_bytes.64k", decF.bytes)
			set("wire.client.invoke_bytes.64k", inv.bytes)
			set("wire.server.serve_bytes.64k", srvC.bytes)
		}
	}

	ctx := loop(budget, func() { sink = standardContexts() })
	set("giop.contexts_ns", ctx.ns)
	set("giop.contexts_allocs", ctx.allocs)
	var evErr error
	evc := loop(budget, func() {
		sc := giop.EventContext(fanoutTopic, "cam0", 7, wire.EFPriority, 1, cdr.LittleEndian)
		if _, _, _, _, _, err := giop.ParseEventContext(sc.Data); err != nil {
			evErr = err
		}
	})
	if evErr != nil {
		return nil, fmt.Errorf("event context: %w", evErr)
	}
	set("giop.event_context_ns", evc.ns)

	// telemetry: the lookup-and-increment the hot path performs per call.
	reg := telemetry.NewRegistry()
	cnt := loop(budget, func() {
		reg.Counter("wire.client.requests", telemetry.L("band", "16000"), telemetry.L("outcome", "ok")).Inc()
	})
	set("telemetry.counter_lookup_inc_ns", cnt.ns)
	set("telemetry.counter_lookup_inc_allocs", cnt.allocs)
	hist := reg.Histogram("wire.client.rtt_ms", telemetry.L("band", "16000"))
	set("telemetry.observe_ex_ns", loop(budget, func() {
		hist.ObserveEx(0.02, telemetry.Exemplar{TraceID: 1, SpanID: 2, At: time.Millisecond})
	}).ns)

	// trace: one root span started and finished as wire.Client does. A
	// fresh tracer per batch keeps its collector from growing unbounded.
	sp := micro(budget, func(n int) cost {
		tr := wire.NewTracer()
		return timed(func() {
			for i := 0; i < n; i++ {
				c := tr.StartRoot("wire.invoke", trace.String("op", "echo"), trace.String("band", "16000"), trace.Int("priority", 16000))
				tr.Finish(c, trace.String("outcome", "ok"))
			}
		})
	})
	set("trace.span_ns", sp.ns)
	set("trace.span_allocs", sp.allocs)

	brk := breaker.New(breaker.Config{Threshold: 4, Cooldown: 250 * time.Millisecond, CooldownCap: 4 * time.Second},
		func() int64 { return time.Now().UnixNano() }, func(n int64) int64 { return 0 })
	set("breaker.allow_record_ns", loop(budget, func() {
		brk.Allow("127.0.0.1:1#16000")
		brk.Record("127.0.0.1:1#16000", false)
	}).ns)

	// pubsub: a manual-pump channel with 8 subscribers; publishing and
	// pumping are timed apart, per subscriber.
	var pumpNs []float64
	pub := micro(budget, func(n int) cost {
		const chunk = 1 << 12 // the outboxes hold one chunk
		ch := pubsub.New(pubsub.ChannelConfig{Name: "layers"})
		defer ch.Close()
		for i := 0; i < fanoutSubs; i++ {
			_, err := ch.Subscribe(pubsub.SubscriberConfig{Name: fmt.Sprint("s", i), Topic: "camera/**",
				Priority: wire.EFPriority, Outbox: chunk, Policy: pubsub.DropNewest, Deliver: func(pubsub.Event) {}})
			if err != nil {
				panic(err) // static, valid configuration
			}
		}
		ev := pubsub.Event{Topic: fanoutTopic, Key: "cam0", Priority: wire.EFPriority, Payload: make([]byte, fanoutPayload)}
		var total cost
		var pumpD time.Duration
		pumped := 0
		for left := n; left > 0; left -= chunk {
			c := timed(func() {
				for i := 0; i < min(left, chunk); i++ {
					_ = ch.Publish(ev) // no limit is set, so admission cannot refuse
				}
			})
			total = cost{total.d + c.d, total.mallocs + c.mallocs, total.bytes + c.bytes}
			t0 := time.Now()
			pumped += ch.PumpAll()
			pumpD += time.Since(t0)
		}
		pumpNs = append(pumpNs, float64(pumpD)/float64(max(pumped, 1)))
		return total
	})
	set("pubsub.publish_ns_per_sub", pub.ns/fanoutSubs)
	set("pubsub.publish_allocs_per_sub", pub.allocs/fanoutSubs)
	set("pubsub.pump_ns", slices.Min(pumpNs[max(len(pumpNs)-5, 0):]))

	// wire.pubsub: PushEvent through a real Client, one-way as the
	// channel host sends it.
	pushCli, err := pipeClient(discard)
	if err != nil {
		return nil, err
	}
	ev := pubsub.Event{Topic: fanoutTopic, Key: "cam0", Priority: wire.EFPriority, Seq: 7, Payload: payload(seed, fanoutPayload)}
	push := loop(budget, func() {
		wire.PushEvent(pushCli, "consumer/0", ev, wire.CallOptions{Timeout: 2 * time.Second, Oneway: true}, nil)
	})
	pushCli.Close()
	set("wire.pubsub.push_ns", push.ns)
	set("wire.pubsub.push_allocs", push.allocs)
	set("wire.pubsub.push_bytes", push.bytes)

	// sim: schedule one kernel event and run it.
	ev1 := micro(budget, func(n int) cost {
		k := sim.NewKernel(seed)
		fired := 0
		return timed(func() {
			for i := 0; i < n; i++ {
				k.After(time.Duration(i)*time.Microsecond, func() { fired++ })
			}
			k.Run()
			sink = fired
		})
	})
	set("sim.event_ns", ev1.ns)
	set("sim.event_allocs", ev1.allocs)

	// experiments: each public runner alone, at Verify's scale.
	opt := experiments.Options{Seed: seed, Duration: 60 * time.Second}
	prio := experiments.Options{Seed: seed, Duration: 20 * time.Second}
	t2 := experiments.Options{Seed: seed, Duration: 150 * time.Second}
	runners := []struct {
		name string
		run  func()
	}{
		{"fig2", func() { sink = experiments.RunFigure2(opt) }},
		{"fig4", func() { sink = experiments.RunFigure4(prio) }},
		{"fig5", func() { sink = experiments.RunFigure5(prio) }},
		{"fig6", func() { sink = experiments.RunFigure6(prio) }},
		{"table1", func() { sink = experiments.RunTable1(opt) }},
		{"table2", func() { sink = experiments.RunTable2(t2) }},
	}
	for _, rn := range runners {
		c := timed(rn.run)
		set("experiments."+rn.name+"_ms", float64(c.d)/1e6)
		if rn.name == "table1" || rn.name == "fig4" {
			set("experiments."+rn.name+"_allocs", float64(c.mallocs))
		}
	}

	// gen: the generator's own cost per op, against an Invoker that does
	// nothing, so the numbers above are known to measure the program.
	r := newRep(repConfig{Workload: "gen", Start: time.Now()}, 1)
	r.phase.Store(phaseMeasure)
	op := echoOp(echoBack{}, wire.EFPriority, payload(seed, 64))
	gen := micro(budget, func(n int) cost {
		rec := &recorder{timed: true, lat: make([]uint32, 0, n)}
		return timed(func() {
			for i := 0; i < n; i++ {
				r.step(rec, uint64(i), op)
			}
		})
	})
	set("gen.overhead_ns", gen.ns)
	set("gen.allocs_per_op", gen.allocs)

	var missing []string
	for _, m := range isolatedLayers {
		if _, ok := out[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) > 0 || len(out) != len(isolatedLayers) {
		sort.Strings(missing)
		return nil, fmt.Errorf("isolated layer rows do not match the spec: missing %v, have %d want %d", missing, len(out), len(isolatedLayers))
	}
	return out, nil
}

// echoBack is the no-op Invoker the generator is priced against.
type echoBack struct{}

func (echoBack) Invoke(_, _ string, body []byte, _ wire.CallOptions) ([]byte, error) {
	return body, nil
}

// serveLoop attaches one pipe to srv and returns a function that writes
// a request frame and reads the reply frame back.
func serveLoop(srv *wire.Server) (serve func(frame []byte) error, closeConn func()) {
	cliEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(srvEnd)
	}()
	br := bufio.NewReaderSize(cliEnd, 32<<10)
	var scratch []byte
	// The server reads a whole request before it writes anything, so on
	// the unbuffered pipe a write followed by a read cannot deadlock.
	serve = func(frame []byte) error {
		if _, err := cliEnd.Write(frame); err != nil {
			return err
		}
		reply, err := giop.ReadFrame(br, 0, scratch)
		if err != nil {
			return err
		}
		scratch = reply[:0]
		return nil
	}
	return serve, func() { cliEnd.Close(); <-done }
}
