package avstreams

import (
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/trace"
	"repro/internal/video"
)

// TestFrameTraceSpansPipeline sends two frames (one I, one P) through
// source -> distributor -> {display, atr(I-only)} with tracing on every
// service and the network, and checks that each frame produces exactly
// one trace covering all its legs — including the filtered branch,
// which must appear as a "frame.filtered" span rather than vanish.
func TestFrameTraceSpansPipeline(t *testing.T) {
	k, srcSvc, distSvc, dispSvc, atrSvc := distributorRig(t)
	tr := trace.NewTracer(k)
	for _, s := range []*Service{srcSvc, distSvc, dispSvc, atrSvc} {
		s.SetTracer(tr)
	}
	srcSvc.net.SetTracer(tr)

	dispRecv := dispSvc.CreateReceiver(5000, 50, nil)
	atrRecv := atrSvc.CreateReceiver(5000, 50, nil)
	d := distSvc.NewDistributor(4000, 60)
	distSvc.host.Spawn("branches", 60, func(th *rtos.Thread) {
		if _, err := d.AddBranch(th.Proc(), 4001, dispRecv.Addr(), QoS{}); err != nil {
			t.Errorf("display branch: %v", err)
		}
		thin, err := d.AddBranch(th.Proc(), 4002, atrRecv.Addr(), QoS{})
		if err != nil {
			t.Errorf("atr branch: %v", err)
			return
		}
		thin.SetFilter(video.FilterIOnly)
	})
	sender := srcSvc.CreateSender(4100)
	srcSvc.host.Spawn("source", 50, func(th *rtos.Thread) {
		st, err := sender.Bind(th.Proc(), d.InAddr(), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		th.Sleep(100 * time.Millisecond) // let the branches come up
		st.SendFrame(th, video.Frame{Seq: 0, Type: video.FrameI, Size: 8000})
		th.Sleep(33 * time.Millisecond)
		st.SendFrame(th, video.Frame{Seq: 1, Type: video.FrameP, Size: 3000})
	})
	k.RunUntil(2 * time.Second)
	tr.FlushOpen()

	col := tr.Collector()
	ids := col.TraceIDs()
	if len(ids) != 2 {
		t.Fatalf("got %d traces, want 2 (one per frame, all legs under one ID)", len(ids))
	}

	countNames := func(id trace.TraceID) map[string]int {
		names := make(map[string]int)
		for _, s := range col.Trace(id) {
			names[s.Name]++
			if !s.Ended() {
				t.Errorf("trace %d: span %q left open", id, s.Name)
			}
			if s.Layer != trace.LayerAVStreams && s.Layer != trace.LayerNetsim {
				t.Errorf("trace %d: unexpected layer %q on span %q", id, s.Layer, s.Name)
			}
		}
		return names
	}

	// Frame 0 (I): passes both branches. One sender leg plus two branch
	// legs share the name "frame 0"; three receivers record frame.recv.
	iNames := countNames(ids[0])
	if iNames["frame 0"] != 3 {
		t.Errorf(`I-frame trace has %d "frame 0" spans, want 3 (sender + 2 branches): %v`,
			iNames["frame 0"], iNames)
	}
	if iNames["frame.recv"] != 3 {
		t.Errorf("I-frame trace has %d frame.recv spans, want 3: %v", iNames["frame.recv"], iNames)
	}
	if iNames["frame.filtered"] != 0 {
		t.Errorf("I-frame trace has filtered spans: %v", iNames)
	}
	if root := col.Root(ids[0]); root == nil || root.Name != "frame 0" {
		t.Errorf("I-frame trace root = %+v", root)
	}

	// Frame 1 (P): the ATR branch filters it; its trace still shows the
	// suppression as a frame.filtered span on the same trace ID.
	pNames := countNames(ids[1])
	if pNames["frame 1"] != 2 {
		t.Errorf(`P-frame trace has %d "frame 1" spans, want 2 (sender + display): %v`,
			pNames["frame 1"], pNames)
	}
	if pNames["frame.recv"] != 2 {
		t.Errorf("P-frame trace has %d frame.recv spans, want 2: %v", pNames["frame.recv"], pNames)
	}
	if pNames["frame.filtered"] != 1 {
		t.Errorf("P-frame trace has %d frame.filtered spans, want 1: %v", pNames["frame.filtered"], pNames)
	}

	// Per-hop network spans must be present in both traces (src->dist is
	// one hop, dist->display/atr one more each).
	for _, id := range ids {
		hops := 0
		for _, s := range col.Trace(id) {
			if s.Layer == trace.LayerNetsim {
				hops++
			}
		}
		if hops == 0 {
			t.Errorf("trace %d has no netsim hop spans", id)
		}
	}
}

// TestLostFrameLeavesUnfinishedSpan sends a frame to a port with no
// receiver, so nothing ever closes the sender's span, and checks that
// FlushOpen ends it tagged unfinished — the way frame loss shows up in
// a trace.
func TestLostFrameLeavesUnfinishedSpan(t *testing.T) {
	k, srcSvc, _, dispSvc, _ := distributorRig(t)
	tr := trace.NewTracer(k)
	srcSvc.SetTracer(tr)

	sender := srcSvc.CreateSender(4100)
	srcSvc.host.Spawn("source", 50, func(th *rtos.Thread) {
		// Port 5999 has no receiver: the frame is delivered to nothing
		// and its span is never finished.
		st, err := sender.Bind(th.Proc(), dispSvc.ep.Addr(5999), QoS{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		st.SendFrame(th, video.Frame{Seq: 0, Type: video.FrameI, Size: 4000})
	})
	k.RunUntil(time.Second)
	tr.FlushOpen()

	col := tr.Collector()
	ids := col.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("got %d traces, want 1", len(ids))
	}
	root := col.Root(ids[0])
	if root == nil || !root.Ended() {
		t.Fatalf("root not flushed: %+v", root)
	}
	tagged := false
	for _, a := range root.Attrs {
		if a.Key == "unfinished" && a.Val == "true" {
			tagged = true
		}
	}
	if !tagged {
		t.Fatalf("lost frame's span not tagged unfinished: %+v", root)
	}
}
