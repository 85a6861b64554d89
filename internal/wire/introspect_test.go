package wire

import (
	"sync"
	"testing"
	"time"
)

// TestServerClientSnapshots pins the live introspection surface: lane
// request and served/refused counts and client pool state reflect real
// traffic, and the snapshots are safe to take while the wire is busy.
func TestServerClientSnapshots(t *testing.T) {
	srv, cli := loopback(t, ServerConfig{
		Lanes: []LaneConfig{
			{Priority: 0, Workers: 1, QueueLimit: 4},
			{Priority: EFPriority, Workers: 1, QueueLimit: 4},
		},
		Name: "snap.server",
	}, ClientConfig{
		Bands: []int16{0, EFPriority},
	})
	echoHandler(srv)

	for i := 0; i < 5; i++ {
		if _, err := cli.Invoke("app/echo", "op", []byte("hi"), CallOptions{Priority: EFPriority}); err != nil {
			t.Fatalf("EF invoke %d: %v", i, err)
		}
	}
	if _, err := cli.Invoke("app/echo", "op", []byte("hi"), CallOptions{Priority: 0}); err != nil {
		t.Fatalf("BE invoke: %v", err)
	}

	ss := srv.Snapshot()
	if ss.Name != "snap.server" || ss.Draining {
		t.Fatalf("server snapshot = %+v", ss)
	}
	if len(ss.Lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(ss.Lanes))
	}
	var efLane, beLane *LaneSnapshot
	for i := range ss.Lanes {
		switch ss.Lanes[i].Priority {
		case EFPriority:
			efLane = &ss.Lanes[i]
		case 0:
			beLane = &ss.Lanes[i]
		}
	}
	if efLane == nil || beLane == nil {
		t.Fatalf("missing lane in snapshot: %+v", ss.Lanes)
	}
	if efLane.Served != 5 || beLane.Served != 1 {
		t.Fatalf("served EF=%d BE=%d, want 5/1", efLane.Served, beLane.Served)
	}
	for _, lane := range []*LaneSnapshot{efLane, beLane} {
		if lane.Requests != lane.Served {
			t.Fatalf("lane %d: %d requests read, %d served", lane.Priority, lane.Requests, lane.Served)
		}
	}
	if efLane.QueueLimit != 4 || efLane.Workers != 1 {
		t.Fatalf("EF lane config in snapshot = %+v", *efLane)
	}
	if efLane.Refused != 0 || efLane.Shed != 0 {
		t.Fatalf("EF lane refused=%d shed=%d, want 0/0", efLane.Refused, efLane.Shed)
	}

	cs := cli.Snapshot()
	if len(cs.Bands) != 2 {
		t.Fatalf("client bands = %d, want 2", len(cs.Bands))
	}
	for _, b := range cs.Bands {
		if b.Conns != 1 || b.Dialing != 0 || b.Breaker != "closed" {
			t.Fatalf("band %d snapshot = %+v, want its 1 conn, no dial in flight, closed breaker", b.Floor, b)
		}
	}
}

// TestSnapshotCountsRefusals pins that queue-overflow admission
// refusals show up in the lane snapshot, and that depth reflects queued
// work while the lane is saturated.
func TestSnapshotCountsRefusals(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	srv, cli := loopback(t, ServerConfig{
		Lanes: []LaneConfig{{Priority: 0, Workers: 1, QueueLimit: 2}},
		Name:  "snap.refuse",
	}, ClientConfig{
		Bands: []int16{0},
	})
	srv.Register("app/block", HandlerFunc(func(req *Request) ([]byte, error) {
		<-release
		return nil, nil
	}))

	// Saturate: 1 executing + 2 queued; arrivals beyond that are
	// refused at admission with TRANSIENT.
	var done sync.WaitGroup
	for i := 0; i < 8; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			cli.Invoke("app/block", "op", nil, CallOptions{Timeout: 5 * time.Second})
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ls := srv.Snapshot().Lanes[0]
		if ls.Refused > 0 && ls.Depth > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturated lane snapshot never showed refusals+depth: %+v", ls)
		}
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(release) })
	done.Wait()
}
