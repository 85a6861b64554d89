// Benchmarks regenerating every table and figure in the paper's
// evaluation section. Each iteration runs the complete experiment on the
// discrete-event substrate at a reduced (but shape-preserving) scale;
// the headline QoS outcomes are attached as custom benchmark metrics so
// `go test -bench` output doubles as a compact reproduction report.
//
// Full paper-scale runs are produced by cmd/qosbench.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
)

// benchOpt runs experiments at a reduced scale; shapes are stable here
// (the experiments package's tests assert them at similar scales).
func benchOpt(i int) experiments.Options {
	return experiments.Options{Seed: int64(42 + i), Duration: 20 * time.Second}
}

func BenchmarkFigure2PriorityPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure2(experiments.Options{Seed: int64(42 + i)})
		if len(r.Hops) != 3 {
			b.Fatalf("hops = %d", len(r.Hops))
		}
	}
}

func BenchmarkFigure4Control(b *testing.B) {
	var flat, congested float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure4(benchOpt(i))
		flat += r.NoTraffic.Sum1.Mean
		congested += r.WithTraffic.Sum1.Mean
	}
	b.ReportMetric(flat/float64(b.N)*1e3, "ms-uncongested")
	b.ReportMetric(congested/float64(b.N)*1e3, "ms-congested")
}

func BenchmarkFigure5ThreadPriority(b *testing.B) {
	var high, low float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure5(benchOpt(i))
		high += r.NoTraffic.Sum1.Mean
		low += r.NoTraffic.Sum2.Mean
	}
	b.ReportMetric(high/float64(b.N)*1e3, "ms-highprio")
	b.ReportMetric(low/float64(b.N)*1e3, "ms-lowprio")
}

func BenchmarkFigure6PriorityDiffServ(b *testing.B) {
	var s1, s2 float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure6(benchOpt(i))
		s1 += r.Combined.Sum1.Mean
		s2 += r.Combined.Sum2.Mean
	}
	b.ReportMetric(s1/float64(b.N)*1e3, "ms-sender1")
	b.ReportMetric(s2/float64(b.N)*1e3, "ms-sender2")
}

func BenchmarkFigure7Delivery(b *testing.B) {
	opt := experiments.Options{Seed: 42, Duration: 60 * time.Second}
	var noAdapt, partialFilter, full float64
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		r := experiments.RunFigure7(opt)
		noAdapt += r.NoAdaptation.DeliveredUnderLoad
		partialFilter += r.PartialWithFilter.DeliveredUnderLoad
		full += r.FullReservation.DeliveredUnderLoad
	}
	b.ReportMetric(noAdapt/float64(b.N)*100, "%delivered-noadapt")
	b.ReportMetric(partialFilter/float64(b.N)*100, "%delivered-partial+filter")
	b.ReportMetric(full/float64(b.N)*100, "%delivered-full")
}

func BenchmarkTable1NetworkReservation(b *testing.B) {
	opt := experiments.Options{Seed: 42, Duration: 60 * time.Second}
	var worst, best float64
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		r := experiments.RunTable1(opt)
		worst += r.Cases[0].DeliveredUnderLoad // no adaptation
		best += r.Cases[5].DeliveredUnderLoad  // full + filtering
	}
	b.ReportMetric(worst/float64(b.N)*100, "%delivered-unmanaged")
	b.ReportMetric(best/float64(b.N)*100, "%delivered-managed")
}

func BenchmarkTable2CPUReservation(b *testing.B) {
	opt := experiments.Options{Seed: 42, Duration: 60 * time.Second} // 10 images
	var loadInflation, resvInflation float64
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(42 + i)
		r := experiments.RunTable2(opt)
		kirsch := r.Rows[0]
		loadInflation += kirsch.Load.Mean / kirsch.NoLoad.Mean
		resvInflation += kirsch.Reserve.Mean / kirsch.NoLoad.Mean
	}
	b.ReportMetric(loadInflation/float64(b.N), "x-kirsch-under-load")
	b.ReportMetric(resvInflation/float64(b.N), "x-kirsch-with-reserve")
}

// BenchmarkVerify prices one reproduction audit — the 15 simulations of
// experiments.Verify, run side by side on up to GOMAXPROCS workers —
// the unit of work of qosperf's sim_paper workload. Compare widths with
// -cpu 1,2.
func BenchmarkVerify(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Verify(experiments.Options{Seed: 1}) {
			if !c.OK {
				b.Fatalf("%s: %s: %s", c.Experiment, c.Claim, c.Detail)
			}
		}
	}
}
