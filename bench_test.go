// Benchmarks regenerating every figure of the paper's evaluation
// (Section V). BenchmarkFigures has one sub-benchmark per figure and
// dataset it is evaluated on: Fig. 5–8 are the influence-modeling
// ablations (IA vs IA-WP/IA-AP/IA-AW) on both datasets, Fig. 9–16 the
// algorithm comparisons (MTA, IA, EIA, DIA, MI) under the four parameter
// sweeps, odd figures on the BK-like and even on the FS-like dataset.
//
// Benchmarks run at "bench scale" (a ~4× reduced world) so the whole
// suite finishes in minutes; run `go run ./cmd/dita-bench` for the
// full Table II scale. Use -v to see each figure's series: every
// sub-benchmark logs the same rows the corresponding figure plots, and
// reports the headline metric via b.ReportMetric.
package dita_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/experiments"
)

// benchSweeps are the bench-scale sweeps: the same five-point structure
// as the paper, reduced instance sizes, the paper's ϕ and r axes.
var benchSweeps = experiments.Sweeps{
	Tasks:   []int{100, 200, 300, 400, 500},
	Workers: []int{80, 160, 240, 320, 400},
	Valid:   experiments.ValidTimeSweep,
	Radius:  experiments.RadiusSweep,
}

func benchParams() experiments.Params {
	return experiments.Params{
		NumTasks:   300,
		NumWorkers: 240,
		ValidHours: 5,
		RadiusKm:   25,
		Days:       []int{10, 11},
		Seed:       42,
	}
}

func benchDataset(name string) dataset.Params {
	var p dataset.Params
	if name == "BK" {
		p = dataset.BrightkiteLike()
		p.NumUsers = 600
		p.NumVenues = 800
	} else {
		p = dataset.FoursquareLike()
		p.NumUsers = 600
		p.NumVenues = 800
	}
	p.Days = 12
	return p
}

var (
	runnersOnce sync.Once
	runners     map[string]*experiments.Runner
	runnersErr  error
)

// getRunner trains one framework per dataset, shared across all
// benchmarks in the binary (training time is excluded from every
// measurement).
func getRunner(b *testing.B, name string) *experiments.Runner {
	b.Helper()
	runnersOnce.Do(func() {
		runners = map[string]*experiments.Runner{}
		for _, n := range []string{"BK", "FS"} {
			data, err := dataset.Generate(benchDataset(n))
			if err != nil {
				runnersErr = err
				return
			}
			r, err := experiments.NewRunner(data, core.Config{TopWillingnessLocations: 8}, benchParams())
			if err != nil {
				runnersErr = err
				return
			}
			runners[n] = r
		}
	})
	if runnersErr != nil {
		b.Fatal(runnersErr)
	}
	return runners[name]
}

// BenchmarkFigures regenerates each figure on each dataset it is
// evaluated on, logs the series the figure plots (its FigureMetrics),
// and reports the headline values of the first series at the largest
// sweep point.
func BenchmarkFigures(b *testing.B) {
	for fig := 5; fig <= 16; fig++ {
		for _, ds := range []string{"BK", "FS"} {
			if !experiments.FigureOnDataset(fig, ds) {
				continue
			}
			b.Run(fmt.Sprintf("Fig%02d_%s", fig, ds), func(b *testing.B) {
				r := getRunner(b, ds)
				b.ResetTimer()
				var res *experiments.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = r.RunFigure(fig, benchSweeps)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				var buf bytes.Buffer
				res.FormatAll(&buf, experiments.FigureMetrics(fig))
				b.Log("\n" + buf.String())
				reportHeadline(b, res)
			})
		}
	}
}

// reportHeadline attaches the headline AI and assigned values (first
// series at the largest sweep point) as custom benchmark metrics.
func reportHeadline(b *testing.B, res *experiments.Result) {
	xs := res.Xs()
	if len(xs) == 0 {
		return
	}
	algs := res.Algorithms()
	if len(algs) == 0 {
		return
	}
	if v, ok := res.Value(xs[len(xs)-1], algs[0], experiments.MetricAI); ok {
		b.ReportMetric(v, "AI")
	}
	if v, ok := res.Value(xs[len(xs)-1], algs[0], experiments.MetricAssigned); ok {
		b.ReportMetric(v, "assigned")
	}
}

// BenchmarkSweepParallelism compares one full comparison sweep run
// sequentially against the default all-cores fan-out; the rows are
// identical, only wall clock differs.
func BenchmarkSweepParallelism(b *testing.B) {
	for _, bc := range []struct {
		name string
		par  int
	}{{"p=1", 1}, {"p=auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			r := *getRunner(b, "BK")
			r.P.Parallelism = bc.par
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.RunFigure(9, benchSweeps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
