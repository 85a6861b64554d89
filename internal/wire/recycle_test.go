package wire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
)

// TestRecycledCallRecords piles the three ways a call can end on top of
// one another while the callers recycle their call records: replies land
// as deadlines expire (servant delays and call timeouts drawn from the
// same few milliseconds), and the connection is killed under them every
// few milliseconds. Some replies are large, so a pooled record meets a
// reply that keeps it out of the pool. Every successful call must get its
// own stamp back — a record signalled twice, or reused before its signal
// was in, hands a caller another call's reply — the pending map must end
// empty, and the server's ledger must reconcile.
func TestRecycledCallRecords(t *testing.T) {
	leakCheck(t)
	srv, err := NewServer(ServerConfig{Lanes: []LaneConfig{{Workers: 4, QueueLimit: 4096}}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		sum := crc32.ChecksumIEEE(req.Body)
		time.Sleep(time.Duration(sum%1000) * time.Microsecond)
		if sum%8 == 0 {
			// A large reply to a small request.
			return bytes.Repeat(req.Body, largeFrame/len(req.Body)+1), nil
		}
		return req.Body, nil
	}))

	var mu sync.Mutex
	var live net.Conn
	var readers sync.WaitGroup
	cli, err := NewClient(ClientConfig{Addr: "pipe", Breaker: breaker.Config{Threshold: 1 << 20},
		Dial: func() (net.Conn, error) {
			cliEnd, srvEnd := net.Pipe()
			readers.Add(1)
			go func() {
				defer readers.Done()
				srv.ServeConn(srvEnd)
			}()
			mu.Lock()
			live = cliEnd
			mu.Unlock()
			return cliEnd, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Shutdown(2 * time.Second)
		readers.Wait()
		checkLedger(t, srv)
	})

	stop := make(chan struct{})
	killed := make(chan int)
	go func() {
		kills := 0
		defer func() { killed <- kills }()
		for tick := time.NewTicker(10 * time.Millisecond); ; {
			select {
			case <-stop:
				tick.Stop()
				return
			case <-tick.C:
				mu.Lock()
				if live != nil {
					live.Close()
					kills++
				}
				mu.Unlock()
			}
		}
	}()

	const callers, calls = 16, 150
	var outcomes [callers]map[string]int
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := map[string]int{}
			for i := 0; i < calls; i++ {
				stamp := []byte(fmt.Sprintf("caller %02d call %04d", g, i))
				timeout := time.Duration(500+crc32.ChecksumIEEE(stamp)%4500) * time.Microsecond
				got, err := cli.Invoke("app/echo", "echo", stamp, CallOptions{Timeout: timeout})
				switch {
				case err == nil && !bytes.HasPrefix(got, stamp):
					t.Errorf("%s: reply %.40q is another call's", stamp, got)
					seen["wrong"]++
				case err == nil:
					seen["ok"]++
				case errors.Is(err, ErrDeadlineExpired):
					seen["deadline"]++
				default:
					seen[errClass(err)]++
				}
			}
			outcomes[g] = seen
		}(g)
	}
	// A record signalled twice wedges the read loop on its full channel,
	// and one never signalled its caller: fail fast rather than at the
	// test binary's timeout.
	watchdog := time.AfterFunc(30*time.Second, func() {
		debug.SetTraceback("all")
		panic("TestRecycledCallRecords: callers still blocked after 30 s — a call record lost or doubled its signal")
	})
	wg.Wait()
	watchdog.Stop()
	close(stop)
	kills := <-killed

	total := map[string]int{}
	for _, seen := range outcomes {
		for k, n := range seen {
			total[k] += n
		}
	}
	t.Logf("%d calls, %d connection kills: %v", callers*calls, kills, total)
	if total["ok"] == 0 {
		t.Errorf("no call succeeded: %v", total)
	}
	for _, b := range cli.bands {
		b.mu.Lock()
		conn := b.conn
		b.mu.Unlock()
		if conn == nil {
			continue
		}
		conn.mu.Lock()
		if n := len(conn.pending); n != 0 {
			t.Errorf("band %d: %d calls still pending after every caller returned", b.floor, n)
		}
		conn.mu.Unlock()
	}
}
