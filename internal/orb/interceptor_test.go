package orb

import (
	"testing"
	"time"

	"repro/internal/giop"
	"repro/internal/rtos"
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
