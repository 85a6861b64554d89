package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
)

// Verdicts of -compare, per (end-to-end metric, workload).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// spread is how far the repetitions are from agreeing: their whole
// range as a share of the reported value.
func spread(mv metricValue) float64 {
	if len(mv.Reps) < 2 || mv.Value == 0 {
		return 0
	}
	return math.Abs((slices.Max(mv.Reps) - slices.Min(mv.Reps)) / mv.Value)
}

// verdict judges one metric on one workload. worse is the relative
// change in the direction that counts against the change.
func verdict(m metricSpec, old, cur metricValue) (v string, worse float64) {
	if old.Value == 0 {
		return unresolved, 0
	}
	worse = (cur.Value - old.Value) / math.Abs(old.Value)
	if m.Better == "higher" {
		worse = -worse
	}
	if math.Abs(cur.Value-old.Value) < m.Floor {
		return unchanged, worse
	}
	switch wide := max(spread(old), spread(cur)) > m.Bound; {
	case worse > m.Bound:
		return regressed, worse
	case wide && disjointBetter(m, old, cur):
		return improved, worse
	case wide:
		return unresolved, worse
	case worse < -m.Bound:
		return improved, worse
	default:
		return unchanged, worse
	}
}

// disjointBetter reports that every repetition of cur reads better than
// every repetition of old.
func disjointBetter(m metricSpec, old, cur metricValue) bool {
	if len(old.Reps) == 0 || len(cur.Reps) == 0 {
		return false
	}
	if m.Better == "higher" {
		return slices.Min(cur.Reps) > slices.Max(old.Reps)
	}
	return slices.Max(cur.Reps) < slices.Min(old.Reps)
}

// compareFiles prints one row per (end-to-end metric, workload) and
// reports whether any regressed or any workload's fail_ratio rose.
func compareFiles(w io.Writer, oldPath, newPath string) (anyRegressed bool, err error) {
	old, err := readDoc(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readDoc(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told\tnew\tchange (base = old)\tbound\tverdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		ow, cw := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if ow == nil || cw == nil {
			return false, fmt.Errorf("workload %s missing from one of the files", wl.Name)
		}
		for _, m := range endToEnd {
			o, inOld := ow.Metrics[m.Name]
			c, inNew := cw.Metrics[m.Name]
			if !inOld && !inNew {
				continue // lat_p99_us on sim_paper
			}
			v, worse := verdict(m, o, c)
			change := worse
			if m.Better == "higher" {
				change = -worse
			}
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f%% of %.5g\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, o.Value, c.Value, 100*change, o.Value, 100*m.Bound, v)
		}
		o, c := ow.Metrics[failRatio.Name].Value, cw.Metrics[failRatio.Name].Value
		v := unchanged
		switch {
		case c > o+failRatioBound:
			v = regressed
		case c < o-failRatioBound:
			v = improved
		}
		counts[v]++
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%.5g\t%.5g\t%+.5g absolute\t+%.3g\t%s\n", wl.Name, o, c, c-o, failRatioBound, v)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "\n%d improved, %d unchanged, %d regressed, %d unresolved (repetition spread wider than the bound)\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	return counts[regressed] > 0, nil
}

// medianFiles writes the per-metric median of several run files: each
// workload metric's repetitions become the sets' medians, so a later
// -compare sees the set-to-set spread.
func medianFiles(out string, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-median needs run files")
	}
	var docs []*runDoc
	for _, p := range paths {
		d, err := readDoc(p)
		if err != nil {
			return err
		}
		docs = append(docs, d)
	}
	merged := *docs[0]
	merged.Host = map[string]any{"sets": len(docs), "seeds": seedsOf(docs)}
	for k, v := range docs[0].Host {
		merged.Host[k] = v
	}
	merged.Workloads = map[string]*workloadDoc{}
	merged.Layers = medianMaps(docs, func(d *runDoc) map[string]float64 { return d.Layers })
	for _, wl := range workloads {
		wd := &workloadDoc{Metrics: map[string]metricValue{}}
		var samples []float64
		for _, d := range docs {
			w := d.Workloads[wl.Name]
			if w == nil {
				return fmt.Errorf("workload %s missing from a run file", wl.Name)
			}
			wd.Attempted += w.Attempted
			wd.Failed += w.Failed
			samples = append(samples, float64(w.LatSamples))
			for name, mv := range w.Metrics {
				acc := wd.Metrics[name]
				acc.Unit = mv.Unit
				acc.Reps = append(acc.Reps, mv.Value)
				wd.Metrics[name] = acc
			}
		}
		for name, mv := range wd.Metrics {
			mv.Value = median(mv.Reps)
			wd.Metrics[name] = mv
		}
		wd.LatSamples = int(median(samples))
		wd.Layers = medianMaps(docs, func(d *runDoc) map[string]float64 { return d.Workloads[wl.Name].Layers })
		merged.Workloads[wl.Name] = wd
	}
	return writeDoc(out, &merged)
}

func seedsOf(docs []*runDoc) []int64 {
	var seeds []int64
	for _, d := range docs {
		seeds = append(seeds, d.Seed)
	}
	return seeds
}

func medianMaps(docs []*runDoc, pick func(*runDoc) map[string]float64) map[string]float64 {
	all := map[string][]float64{}
	for _, d := range docs {
		for k, v := range pick(d) {
			all[k] = append(all[k], v)
		}
	}
	out := make(map[string]float64, len(all))
	for k, vs := range all {
		out[k] = median(vs)
	}
	return out
}
