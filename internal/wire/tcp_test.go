package wire

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/trace/telemetry"
)

// TestTCPEndToEnd is the real-socket acceptance test: qoscall-shaped
// mixed EF/BE open-loop load against a qosserve-shaped server over
// localhost TCP, race-clean, with the tentpole's QoS claim asserted —
// saturating the best-effort lane must not drag the expedited tail up
// to it (EF p99 below BE p99, with real margin).
func TestTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket benchmark run")
	}
	res, err := RunBench(BenchOptions{Duration: 700 * time.Millisecond})
	if err != nil {
		t.Fatalf("RunBench: %v", err)
	}
	t.Logf("\n%s", res.Render())

	if res.EF.OK < 50 {
		t.Fatalf("EF completed only %d calls", res.EF.OK)
	}
	if res.BE.OK < 50 {
		t.Fatalf("BE completed only %d calls", res.BE.OK)
	}
	for class, n := range res.EF.Errors {
		if class != "dropped_local" && n > 0 {
			t.Errorf("EF saw %d %s errors; the expedited class must be untouched by BE load", n, class)
		}
	}
	// The acceptance criterion: EF tail < BE tail under saturating BE
	// load. The BE queue behind one worker holds tens of milliseconds,
	// EF rides a private band into its own lane — the gap is structural
	// (orders of magnitude), so a 2x margin is conservative even under
	// the race detector.
	if res.EF.Latency.P99*2 >= res.BE.Latency.P99 {
		t.Errorf("EF p99 %.3fms not clearly below BE p99 %.3fms",
			res.EF.Latency.P99, res.BE.Latency.P99)
	}
}

// TestLiveMetricsScrape pins the observability path end to end: a real
// HTTP scrape of the monitoring mux while wire traffic flows serves the
// wire instrument families in Prometheus exposition format.
func TestLiveMetricsScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket run")
	}
	reg := telemetry.NewRegistry()
	srv, err := NewServer(ServerConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv.Register("app/echo", HandlerFunc(func(req *Request) ([]byte, error) {
		return req.Body, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(2 * time.Second)

	metricsAddr, stop, err := monitor.StartHTTP("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	cli, err := NewClient(ClientConfig{Addr: addr.String(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if _, err := cli.Invoke("app/echo", "echo", []byte("scrape me"), CallOptions{}); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading scrape: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		"wire_client_rtt_ms",
		"wire_server_exec_ms",
		"wire_server_outcomes",
		"wire_server_connections",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %s\n%s", want, firstLines(text, 20))
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
