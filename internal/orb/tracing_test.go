package orb

import (
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/trace/telemetry"
)

// TestInvocationTraceEndToEnd checks the tentpole property: one traced
// invocation yields a single trace whose spans cover every layer it
// crossed, and whose per-layer breakdown sums exactly to the observed
// end-to-end latency.
func TestInvocationTraceEndToEnd(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	tr := trace.NewTracer(r.k)
	r.client.EnableTracing(tr)
	r.server.EnableTracing(tr)
	r.net.SetTracer(tr)

	poa, err := r.server.CreatePOA("app", POAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := poa.Activate("echo", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		req.Thread.Compute(200 * time.Microsecond)
		return req.Body, nil
	}))
	if err != nil {
		t.Fatal(err)
	}

	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_, callErr = r.client.Invoke(th, ref, "echo_op", make([]byte, 256))
	})
	r.k.RunUntil(time.Second)
	if callErr != nil {
		t.Fatal(callErr)
	}
	tr.FlushOpen()

	col := tr.Collector()
	ids := col.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("got %d traces, want 1", len(ids))
	}
	spans := col.Trace(ids[0])
	root := col.Root(ids[0])
	if root == nil || root.Name != "invoke echo_op" || !root.Ended() {
		t.Fatalf("bad root span: %+v", root)
	}
	if root.Duration() <= 0 {
		t.Fatalf("root duration = %v", root.Duration())
	}

	names := make(map[string]int)
	layers := make(map[string]int)
	for _, s := range spans {
		names[s.Name]++
		layers[s.Layer]++
		if !s.Ended() {
			t.Errorf("span %q left open", s.Name)
		}
	}
	for _, want := range []string{
		"request.marshal", "lane.queue", "dispatch echo_op",
		"reply.marshal", "reply.demarshal",
	} {
		if names[want] != 1 {
			t.Errorf("span %q count = %d, want 1", want, names[want])
		}
	}
	if names["hop client>server"] != 1 || names["hop server>client"] != 1 {
		t.Errorf("hop spans = %v", names)
	}
	for _, want := range []string{trace.LayerORB, trace.LayerNetsim, trace.LayerRTCORBA, trace.LayerPOA} {
		if layers[want] == 0 {
			t.Errorf("no spans on layer %q (got %v)", want, layers)
		}
	}

	shares, total := col.Breakdown(ids[0])
	if total != root.Duration() {
		t.Fatalf("breakdown total = %v, root duration = %v", total, root.Duration())
	}
	var sum sim.Time
	for _, sh := range shares {
		sum += sh.Time
	}
	if sum != total {
		t.Fatalf("layer shares sum to %v, want exactly %v", sum, total)
	}
}

// TestNestedInvocationJoinsTrace checks that an invocation made from
// inside a servant (on the dispatching pool thread) chains onto the
// inbound dispatch span instead of rooting a fresh trace.
func TestNestedInvocationJoinsTrace(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	tr := trace.NewTracer(r.k)
	r.client.EnableTracing(tr)
	r.server.EnableTracing(tr)

	poa, err := r.server.CreatePOA("app", POAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	backRef, err := poa.Activate("backend", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	relayRef, err := poa.Activate("relay", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		// Nested call from the dispatch thread; collocated, but still
		// dispatched and traced.
		return req.ORB.Invoke(req.Thread, backRef, "inner", nil)
	}))
	if err != nil {
		t.Fatal(err)
	}

	var callErr error
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		_, callErr = r.client.Invoke(th, relayRef, "outer", nil)
	})
	r.k.RunUntil(time.Second)
	if callErr != nil {
		t.Fatal(callErr)
	}
	tr.FlushOpen()

	col := tr.Collector()
	if ids := col.TraceIDs(); len(ids) != 1 {
		t.Fatalf("got %d traces, want 1 (nested invoke must not root a new trace)", len(ids))
	}
	var inner, outer *trace.Span
	for _, s := range col.Trace(col.TraceIDs()[0]) {
		switch s.Name {
		case "invoke inner":
			inner = s
		case "dispatch outer":
			outer = s
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("missing nested invoke or outer dispatch span")
	}
	if inner.Parent != outer.ID {
		t.Fatalf("nested invoke parented to span %d, want dispatch span %d", inner.Parent, outer.ID)
	}
}

// TestTelemetryProbeRED checks the RED counters and the latency
// histogram, including the error path.
func TestTelemetryProbeRED(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	reg := telemetry.NewRegistry()
	r.client.AddClientInterceptor(&TelemetryProbe{Reg: reg})

	poa, err := r.server.CreatePOA("app", POAConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := poa.Activate("obj", ServantFunc(func(req *ServerRequest) ([]byte, error) {
		if req.Op == "fail" {
			return nil, &SystemException{ID: "IDL:omg.org/CORBA/UNKNOWN:1.0"}
		}
		return nil, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	r.clientHost.Spawn("caller", 50, func(th *rtos.Thread) {
		opts := InvokeOptions{Priority: 10}
		for i := 0; i < 3; i++ {
			r.client.InvokeOpt(th, ref, "ok", nil, opts)
		}
		r.client.InvokeOpt(th, ref, "fail", nil, opts)
	})
	r.k.RunUntil(time.Second)

	if got := reg.Counter("orb.requests", telemetry.L("op", "ok"), telemetry.L("prio", "10")).Value(); got != 3 {
		t.Fatalf("ok requests = %v, want 3\n%s", got, reg.Render())
	}
	if got := reg.Counter("orb.errors", telemetry.L("op", "fail"), telemetry.L("prio", "10")).Value(); got != 1 {
		t.Fatalf("fail errors = %v, want 1\n%s", got, reg.Render())
	}
	h := reg.Histogram("orb.rtt_ms", telemetry.L("op", "ok"), telemetry.L("prio", "10"))
	if h.Summary().N != 3 {
		t.Fatalf("rtt samples = %d, want 3", h.Summary().N)
	}
	if s := h.Summary(); s.Min <= 0 {
		t.Fatalf("rtt min = %v, want > 0", s.Min)
	}
}
