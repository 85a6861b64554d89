// Command qosperf is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the middleware would see, a per-layer
// cost table, and a traced pass. See bench/README.md.
//
//	go run ./bench/qosperf -seed 1 -out bench/out/run.json   # every workload, every metric
//	go run ./bench/qosperf -compare old.json new.json        # verdict per (metric, workload)
//	go run ./bench/qosperf -median -out m.json a.json b.json # per-metric median of several sets
//	go run ./bench/qosperf -workload echo_small -seed 1 -seconds 24 -trace 0   # one workload, driver form
//
// It drives the system only through exported functions of internal/*,
// and runs every repetition in a child process of its own so set-up
// time, peak memory and allocator state belong to that repetition alone.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const startEnv = "QOSPERF_CHILD_START"

// layerBudget is the time one isolated per-layer loop may take.
const layerBudget = 60 * time.Millisecond

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line (driver form)")
		seed     = flag.Int64("seed", 1, "fixes payload bytes, ClientConfig.Seed and the simulation seed")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per workload, split over 3 repetitions")
		traceOn  = flag.Int("trace", 0, "driver form: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		out      = flag.String("out", "bench/out/run.json", "where the full run writes its JSON")
		compare  = flag.Bool("compare", false, "compare two run files: -compare old.json new.json")
		med      = flag.Bool("median", false, "write the per-metric median of several run files to -out")
		child    = flag.Bool("child", false, "internal: run one repetition in this process")
		measure  = flag.Duration("measure", 0, "internal: the child's measured window")
		traced   = flag.Bool("traced", false, "internal: the child records spans")
		traceOut = flag.String("trace-out", "", "internal: the child's trace file")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two files: old.json new.json")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *med:
		err = medianFiles(*out, flag.Args())
	case *child:
		err = childMain(repConfig{Workload: *workload, Seed: *seed, Measure: *measure, Traced: *traced, TraceOut: *traceOut})
	case *workload != "":
		err = driverRun(*workload, *seed, *seconds, *traceOn == 1)
	default:
		err = fullRun(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qosperf:", err)
		os.Exit(1)
	}
}

// childMain runs one repetition and prints its result as one JSON line.
func childMain(cfg repConfig) error {
	if ns, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64); err == nil {
		cfg.Start = time.Unix(0, ns)
	}
	res, err := runRep(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runChild re-executes this binary for one repetition and adds what
// only the parent can see: the child's peak resident set at exit.
func runChild(cfg repConfig) (repResult, error) {
	var res repResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-child", "-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-measure", cfg.Measure.String(), "-traced="+strconv.FormatBool(cfg.Traced), "-trace-out", cfg.TraceOut)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), startEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	stdout, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s repetition: %w", cfg.Workload, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &res); err != nil {
		return res, fmt.Errorf("%s repetition printed no result: %w", cfg.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Metrics["rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// metricValue is one end-to-end metric of one workload: the reported
// value — the median of the repetitions — and each repetition's own.
type metricValue struct {
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	Reps  []float64 `json:"reps"`
}

// traceDoc describes a workload's traced pass.
type traceDoc struct {
	File       string  `json:"file"`
	Spans      int     `json:"spans"`
	OpsPerS    float64 `json:"ops_per_s"`
	OpMedianUs float64 `json:"op_median_us"`
}

// workloadDoc is everything one workload reported.
type workloadDoc struct {
	Metrics    map[string]metricValue `json:"metrics"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	LatSamples int                    `json:"lat_samples"`
	// Layers are the in-run per-layer rows: medians over the untraced
	// repetitions, path.* and trace.overhead_ratio from the traced pass.
	Layers map[string]float64 `json:"layers"`
	Trace  *traceDoc          `json:"trace,omitempty"`
}

// runDoc is the file a full run writes and -compare reads.
type runDoc struct {
	Schema        string                  `json:"schema"`
	Host          map[string]any          `json:"host"`
	Seed          int64                   `json:"seed"`
	SecondsPerRep float64                 `json:"seconds_per_rep"`
	Workloads     map[string]*workloadDoc `json:"workloads"`
	// Layers are the isolated per-layer rows and path.sum_over_rtt.
	Layers map[string]float64 `json:"layers"`
}

const schema = "qosperf/1"

// fold turns a workload's untraced repetitions into its document.
func fold(reps []repResult) *workloadDoc {
	doc := &workloadDoc{Metrics: map[string]metricValue{}, Layers: map[string]float64{}}
	var samples []float64
	perLayerReps := map[string][]float64{}
	for _, r := range reps {
		doc.Attempted += r.Attempted
		doc.Failed += r.Failed
		samples = append(samples, float64(r.Samples))
		for k, v := range r.Layers {
			perLayerReps[k] = append(perLayerReps[k], v)
		}
	}
	doc.LatSamples = int(median(samples))
	for _, m := range endToEnd {
		mv := metricValue{Unit: m.Unit}
		for _, r := range reps {
			if v, ok := r.Metrics[m.Name]; ok {
				mv.Reps = append(mv.Reps, v)
			}
		}
		if len(mv.Reps) == 0 {
			continue // lat_p99_us on sim_paper
		}
		mv.Value = median(mv.Reps)
		doc.Metrics[m.Name] = mv
	}
	ratio := metricValue{Unit: failRatio.Unit}
	for _, r := range reps {
		ratio.Reps = append(ratio.Reps, float64(r.Failed)/float64(max(r.Attempted, 1)))
	}
	ratio.Value = float64(doc.Failed) / float64(max(doc.Attempted, 1))
	doc.Metrics[failRatio.Name] = ratio
	for k, vs := range perLayerReps {
		doc.Layers[k] = median(vs)
	}
	return doc
}

// addTrace merges the traced pass into the workload's document.
func (doc *workloadDoc) addTrace(tr repResult, file string) {
	doc.Attempted += tr.Attempted
	doc.Failed += tr.Failed
	for k, v := range tr.Layers {
		if strings.HasPrefix(k, "path.") {
			doc.Layers[k] = v
		}
	}
	if base := doc.Metrics["ops_per_s"].Value; base > 0 {
		doc.Layers["trace.overhead_ratio"] = tr.Metrics["ops_per_s"] / base
	}
	doc.Trace = &traceDoc{File: file, Spans: tr.Spans, OpsPerS: tr.Metrics["ops_per_s"], OpMedianUs: tr.OpMedianUs}
}

func traceFile(workload string) string {
	return filepath.Join("bench", "out", "trace_"+workload+".jsonl")
}

func known(workload string) bool {
	return slices.ContainsFunc(workloads, func(w workloadSpec) bool { return w.Name == workload })
}

// sumOverRTT is the share of echo_small's median round trip that the
// isolated client and server rows explain.
func sumOverRTT(isolated map[string]float64, echoSmallP50us float64) float64 {
	if echoSmallP50us <= 0 {
		return 0
	}
	return (isolated["wire.client.invoke_ns.64"] + isolated["wire.server.serve_ns.64"]) / 1e3 / echoSmallP50us
}

// driverRun is the form the benchmark driver calls: one workload, one
// JSON object as the last line of standard output.
func driverRun(workload string, seed int64, seconds float64, traced bool) error {
	if !known(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	per := time.Duration(seconds / repsPerRun * float64(time.Second))
	cfg := repConfig{Workload: workload, Seed: seed, Measure: per}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var doc *workloadDoc
	if !traced {
		var reps []repResult
		for i := 0; i < repsPerRun; i++ {
			res, err := runChild(cfg)
			if err != nil {
				return err
			}
			reps = append(reps, res)
		}
		doc = fold(reps)
		for _, m := range endToEnd {
			mv := doc.Metrics[m.Name]
			if _, ok := driverTail[workload]; ok && m.Name == "lat_p99_us" {
				mv = metricValue{}
				for _, r := range reps {
					mv.Reps = append(mv.Reps, r.DriverTailUs)
				}
				mv.Value = median(mv.Reps)
			}
			fmt.Fprintf(os.Stderr, "qosperf: %s %s = %.5g %s, repetitions %.5g\n", workload, m.Name, mv.Value, m.Unit, mv.Reps)
			metrics[m.Name] = value{mv.Value, m.Unit}
		}
	} else {
		isolated, err := runLayers(layerBudget, seed)
		if err != nil {
			return err
		}
		plain, err := runChild(cfg)
		if err != nil {
			return err
		}
		cfg.Traced, cfg.TraceOut = true, traceFile(workload)
		tr, err := runChild(cfg)
		if err != nil {
			return err
		}
		doc = fold([]repResult{plain})
		doc.addTrace(tr, cfg.TraceOut)
		if workload == "echo_small" {
			doc.Layers["path.sum_over_rtt"] = sumOverRTT(isolated, plain.Metrics["lat_p50_us"])
		}
		for _, m := range perLayer {
			v, ok := isolated[m.Name]
			if !ok {
				v = doc.Layers[m.Name]
			}
			metrics[m.Name] = value{v, m.Unit}
		}
		metrics[failRatio.Name] = value{float64(doc.Failed) / float64(max(doc.Attempted, 1)), failRatio.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{doc.Failed == 0, doc.Attempted, doc.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if doc.Failed != 0 {
		return fmt.Errorf("%s: %d of %d operations failed their checks", workload, doc.Failed, doc.Attempted)
	}
	return nil
}

// fullRun runs every workload — repetitions interleaved across
// workloads so slow drift on a shared host hits all alike — then one
// traced pass each, then the isolated layer loops; prints every metric
// and writes the run file.
func fullRun(seed int64, seconds float64, out string) error {
	per := time.Duration(seconds / repsPerRun * float64(time.Second))
	reps := map[string][]repResult{}
	for i := 0; i < repsPerRun; i++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "qosperf: %s repetition %d/%d (%v measured)\n", w.Name, i+1, repsPerRun, per)
			res, err := runChild(repConfig{Workload: w.Name, Seed: seed, Measure: per})
			if err != nil {
				return err
			}
			reps[w.Name] = append(reps[w.Name], res)
		}
	}
	doc := runDoc{Schema: schema, Host: hostInfo(), Seed: seed, SecondsPerRep: per.Seconds(),
		Workloads: map[string]*workloadDoc{}}
	tracedFor := min(per, 4*time.Second)
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "qosperf: %s traced pass (%v)\n", w.Name, tracedFor)
		wd := fold(reps[w.Name])
		file := traceFile(w.Name)
		tr, err := runChild(repConfig{Workload: w.Name, Seed: seed, Measure: tracedFor, Traced: true, TraceOut: file})
		if err != nil {
			return err
		}
		wd.addTrace(tr, file)
		doc.Workloads[w.Name] = wd
	}
	fmt.Fprintln(os.Stderr, "qosperf: isolated per-layer loops")
	isolated, err := runLayers(layerBudget, seed)
	if err != nil {
		return err
	}
	doc.Layers = isolated
	doc.Layers["path.sum_over_rtt"] = sumOverRTT(isolated, doc.Workloads["echo_small"].Metrics["lat_p50_us"].Value)

	printRun(os.Stdout, &doc)
	if err := writeDoc(out, &doc); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	for name, wd := range doc.Workloads {
		if wd.Failed != 0 {
			return fmt.Errorf("%s: %d of %d operations failed their checks", name, wd.Failed, wd.Attempted)
		}
	}
	return nil
}

func writeDoc(path string, doc *runDoc) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDoc(path string) (*runDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc runDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return &doc, nil
}

// hostInfo is the metadata a committed baseline needs to be read later.
func hostInfo() map[string]any {
	firstLine := func(cmd string, args ...string) string {
		b, err := exec.Command(cmd, args...).Output()
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpu,
		"kernel":     firstLine("uname", "-sr"),
		"go_version": runtime.Version(),
		"git_rev":    firstLine("git", "rev-parse", "--short", "HEAD"),
		"transport":  "loopback (127.0.0.1 TCP, client and server in one process)",
	}
}

// printRun prints every metric by name with its unit.
func printRun(w *os.File, doc *runDoc) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	// row prints one line of a per-workload table.
	row := func(name, unit string, cell func(workload string, wd *workloadDoc) string) {
		fmt.Fprintf(tw, "%s\t%s\t", name, unit)
		for _, wl := range workloads {
			fmt.Fprintf(tw, "%s\t", cell(wl.Name, doc.Workloads[wl.Name]))
		}
		fmt.Fprintln(tw)
	}
	names := func(workload string, _ *workloadDoc) string { return workload }
	row("end-to-end", "unit", names)
	for _, m := range append(slices.Clone(endToEnd), failRatio) {
		row(m.Name, m.Unit, func(_ string, wd *workloadDoc) string {
			mv, ok := wd.Metrics[m.Name]
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.5g", mv.Value)
		})
	}
	row("lat_samples", "count", func(_ string, wd *workloadDoc) string { return strconv.Itoa(wd.LatSamples) })
	fmt.Fprintln(tw)
	row("per-layer, in run", "unit", names)
	for _, m := range append(slices.Clone(inRunLayers), crossLayers[0]) {
		row(m.Name, m.Unit, func(_ string, wd *workloadDoc) string { return fmt.Sprintf("%.5g", wd.Layers[m.Name]) })
	}
	tw.Flush()

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "per-layer, isolated\tunit\tvalue\t")
	isolated := make([]string, 0, len(doc.Layers))
	for name := range doc.Layers {
		isolated = append(isolated, name)
	}
	sort.Strings(isolated)
	for _, name := range isolated {
		fmt.Fprintf(tw, "%s\t%s\t%.5g\t\n", name, unitOf(perLayer, name), doc.Layers[name])
	}
	tw.Flush()
}
