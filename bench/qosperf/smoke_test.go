package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// benchmarkJSON renders BENCHMARK.json from spec.go.
func benchmarkJSON(t *testing.T) []byte {
	type boundless struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]boundless, len(perLayer))
	for i, m := range perLayer {
		layers[i] = boundless{m.Name, m.Unit, m.Better}
	}
	out, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []boundless    `json:"per_layer"`
	}{[]string{"go", "run", "./bench/qosperf"}, []string{"bench"}, runSeconds, workloads, endToEnd, layers}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestSmoke runs every workload for 200 ms and every per-layer loop
// for a few iterations, in this process. It asserts shape and
// correctness only — no timing — so tier-1 `go test ./...` and CI's
// -race step cover the benchmark.
func TestSmoke(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	if want := benchmarkJSON(t); !bytes.Equal(committed, want) {
		t.Fatalf("BENCHMARK.json differs from the spec in spec.go, which says:\n%s", want)
	}

	dir := t.TempDir()
	const window = 200 * time.Millisecond
	doc := runDoc{Schema: schema, Host: hostInfo(), Seed: 1, SecondsPerRep: window.Seconds(), Workloads: map[string]*workloadDoc{}}
	for _, wl := range workloads {
		cfg := repConfig{Workload: wl.Name, Seed: 1, Measure: window, WarmScale: 0.02}
		res, err := runRep(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			res.Metrics["rss_mb"] = float64(ru.Maxrss) / 1024
		}
		cfg.Traced, cfg.TraceOut = true, filepath.Join(dir, "trace_"+wl.Name+".jsonl")
		tr, err := runRep(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.Name, err)
		}
		wd := fold([]repResult{res})
		wd.addTrace(tr, cfg.TraceOut)
		doc.Workloads[wl.Name] = wd

		if wd.Failed != 0 || wd.Metrics[failRatio.Name].Value != 0 {
			t.Errorf("%s: %d of %d operations failed their checks", wl.Name, wd.Failed, wd.Attempted)
		}
		// All nine, except lat_p99_us on sim_paper.
		want := len(endToEnd) + 1
		if wl.Name == "sim_paper" {
			want--
		}
		if len(wd.Metrics) != want {
			t.Errorf("%s: %d end-to-end metrics, want %d", wl.Name, len(wd.Metrics), want)
		}
		for _, m := range endToEnd {
			if wl.Name == "sim_paper" && m.Name == "lat_p99_us" {
				continue
			}
			if mv, ok := wd.Metrics[m.Name]; !ok || mv.Unit != m.Unit || mv.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", wl.Name, m.Name, mv, m.Unit)
			}
		}
		wantLayers := len(inRunLayers) + 1 // and trace.overhead_ratio
		if len(wd.Layers) != wantLayers {
			t.Errorf("%s: %d in-run layer rows, want %d", wl.Name, len(wd.Layers), wantLayers)
		}
		for _, m := range inRunLayers {
			if _, ok := wd.Layers[m.Name]; !ok {
				t.Errorf("%s: in-run layer row %s missing", wl.Name, m.Name)
			}
		}
		if wd.Layers["trace.overhead_ratio"] <= 0 {
			t.Errorf("%s: trace.overhead_ratio = %v", wl.Name, wd.Layers["trace.overhead_ratio"])
		}
		if fi, err := os.Stat(cfg.TraceOut); err != nil || fi.Size() == 0 {
			t.Errorf("%s: trace file: %v", wl.Name, err)
		}
	}

	// runLayers itself checks its rows against the spec.
	isolated, err := runLayers(2*time.Millisecond, 1)
	if err != nil {
		t.Fatalf("isolated layers: %v", err)
	}
	doc.Layers = isolated
	doc.Layers["path.sum_over_rtt"] = sumOverRTT(isolated, doc.Workloads["echo_small"].Metrics["lat_p50_us"].Value)
	if got, want := len(doc.Layers)+len(inRunLayers)+2, len(perLayer); got != want { // and trace.overhead_ratio, fail_ratio
		t.Errorf("%d per-layer rows in all, BENCHMARK.json lists %d", got, want)
	}

	run := filepath.Join(dir, "run.json")
	if err := writeDoc(run, &doc); err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	regressed, err := compareFiles(&table, run, run)
	if err != nil || regressed {
		t.Fatalf("-compare of a file with itself: regressed=%v err=%v\n%s", regressed, err, table.String())
	}
	if !strings.Contains(table.String(), "0 improved, 44 unchanged, 0 regressed, 0 unresolved") {
		t.Errorf("-compare of a file with itself is not all unchanged:\n%s", table.String())
	}
}
