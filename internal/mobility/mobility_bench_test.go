package mobility

import (
	"fmt"
	"testing"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/randx"
)

func benchHistories(nWorkers, visits int, seed uint64) map[model.WorkerID]model.History {
	rng := randx.New(seed)
	out := make(map[model.WorkerID]model.History, nWorkers)
	for u := 0; u < nWorkers; u++ {
		var h model.History
		pos := geo.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		for i := 0; i < visits; i++ {
			jump := rng.Pareto(1, 1.5)
			pos = geo.Point{X: pos.X + jump, Y: pos.Y + jump/2}
			h = append(h, model.CheckIn{
				User: model.WorkerID(u), Venue: model.VenueID(rng.Intn(visits / 2)),
				Loc: pos, Arrive: float64(i), Complete: float64(i) + 0.5,
			})
		}
		out[model.WorkerID(u)] = h
	}
	return out
}

// BenchmarkFit measures Historical Acceptance fitting (RWR + Pareto MLE)
// for a paper-scale worker population.
func BenchmarkFit(b *testing.B) {
	hists := benchHistories(2400, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(hists, Config{})
	}
}

// BenchmarkWillingness measures one Pwil(w, s) evaluation — the unit of
// work of every willingness entry the influence session fills — on the
// BK preset's model truncated to 8 locations per worker, as the CLIs
// train it. Each iteration fills one task location's entry for every
// user, as a full row fill does; "kernel" is the production Kernel,
// "pow" the math.Pow reference on the same truncated models.
func BenchmarkWillingness(b *testing.B) {
	m, users, tasks := bkFixture(b, 1)
	k := NewKernel(m, users, 8)
	models := make([]*WorkerModel, users)
	for u := range models {
		models[u] = k.Worker(u)
	}
	b.Run("kernel", func(b *testing.B) {
		sc := k.NewScratch()
		i := 0
		for b.Loop() {
			loc := tasks[i%len(tasks)]
			for u := 0; u < users; u++ {
				k.Willingness(u, loc, sc)
			}
			i++
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*users), "ns/entry")
	})
	b.Run("pow", func(b *testing.B) {
		i := 0
		for b.Loop() {
			loc := tasks[i%len(tasks)]
			for _, wm := range models {
				if wm != nil {
					wm.Willingness(loc)
				}
			}
			i++
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*users), "ns/entry")
	})
}

// BenchmarkFitParallel measures per-worker HA fitting at several pool
// widths over the same histories.
func BenchmarkFitParallel(b *testing.B) {
	hists := benchHistories(2400, 30, 1)
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Fit(hists, Config{Parallelism: par})
			}
		})
	}
}
