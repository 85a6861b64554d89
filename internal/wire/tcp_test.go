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
