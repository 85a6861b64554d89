package orb

import (
	"testing"
	"time"

	"repro/internal/giop"
	"repro/internal/rtcorba"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// recordingInterceptor logs the interception points it visits.
type recordingInterceptor struct {
	name string
	log  *[]string
}

func (r *recordingInterceptor) SendRequest(info *ClientRequestInfo) {
	*r.log = append(*r.log, r.name+":send:"+info.Op)
}

func (r *recordingInterceptor) ReceiveReply(info *ClientRequestInfo) {
	*r.log = append(*r.log, r.name+":reply:"+info.Op)
}

func TestClientInterceptorOrdering(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("echo", &echoServant{})
	var log []string
	r.client.AddClientInterceptor(&recordingInterceptor{name: "a", log: &log})
	r.client.AddClientInterceptor(&recordingInterceptor{name: "b", log: &log})
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_, _ = r.client.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	want := []string{"a:send:op", "b:send:op", "b:reply:op", "a:reply:op"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestLatencyProbeObservesRTT(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	slow := ServantFunc(func(req *ServerRequest) ([]byte, error) {
		req.Thread.Sleep(30 * time.Millisecond)
		return nil, nil
	})
	ref, _ := poa.Activate("slow", slow)
	var rtts []sim.Time
	r.client.AddClientInterceptor(&LatencyProbe{Observe: func(op string, rtt sim.Time, err error) {
		if err == nil {
			rtts = append(rtts, rtt)
		}
	}})
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		for i := 0; i < 3; i++ {
			_, _ = r.client.Invoke(th, ref, "op", nil)
		}
	})
	r.k.RunUntil(5 * time.Second)
	if len(rtts) != 3 {
		t.Fatalf("observed %d RTTs", len(rtts))
	}
	for _, rtt := range rtts {
		if rtt < 30*time.Millisecond || rtt > 100*time.Millisecond {
			t.Fatalf("rtt = %v", rtt)
		}
	}
}

func TestPriorityFloorRaisesDispatchPriority(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	srv := &echoServant{}
	poa, _ := r.server.CreatePOA("app", POAConfig{Model: rtcorba.ClientPropagated})
	ref, _ := poa.Activate("echo", srv)
	r.client.AddClientInterceptor(&PriorityFloor{Min: 25000})
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_ = r.client.Current(th).SetPriority(100) // below the floor
		_, _ = r.client.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if srv.lastPrio != 25000 {
		t.Fatalf("dispatch priority = %d, want floored 25000", srv.lastPrio)
	}
}

func TestExtraContextsRoundTrip(t *testing.T) {
	// An interceptor attaches a custom service context; the request must
	// still marshal, transit, and dispatch correctly.
	r := newRig(t, Config{}, Config{})
	r.client.AddClientInterceptor(&extraCtxInterceptor{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	srv := &echoServant{}
	ref, _ := poa.Activate("echo", srv)
	var err error
	r.clientHost.Spawn("caller", 10, func(th *rtos.Thread) {
		_, err = r.client.Invoke(th, ref, "op", []byte{1})
	})
	r.k.RunUntil(time.Second)
	if err != nil || srv.calls != 1 {
		t.Fatalf("err=%v calls=%d", err, srv.calls)
	}
}

type extraCtxInterceptor struct{}

func (*extraCtxInterceptor) SendRequest(info *ClientRequestInfo) {
	info.ExtraContexts = append(info.ExtraContexts,
		giop.ServiceContext{ID: 0xBEEF, Data: []byte("quo")})
}
func (*extraCtxInterceptor) ReceiveReply(*ClientRequestInfo) {}

func TestInterceptorsCoverCollocatedPath(t *testing.T) {
	r := newRig(t, Config{}, Config{})
	poa, _ := r.server.CreatePOA("app", POAConfig{})
	ref, _ := poa.Activate("echo", &echoServant{})
	var log []string
	r.server.AddClientInterceptor(&recordingInterceptor{name: "c", log: &log})
	r.serverHost.Spawn("local", 10, func(th *rtos.Thread) {
		_, _ = r.server.Invoke(th, ref, "op", nil)
	})
	r.k.RunUntil(time.Second)
	if len(log) != 2 || log[0] != "c:send:op" || log[1] != "c:reply:op" {
		t.Fatalf("collocated interception log = %v", log)
	}
}
