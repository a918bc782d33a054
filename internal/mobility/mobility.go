// Package mobility implements the Historical Acceptance (HA) approach of
// Section III-B: the probability Pwil(w, s) that worker w is willing to
// visit the location of task s, derived from the worker's historical
// task-performing records.
//
// HA combines two parts:
//
//  1. A stationary distribution Pw(w, si) over the locations the worker
//     has performed tasks at, computed with Random Walk with Restart over
//     the worker's location-transition structure. (The paper's weight
//     matrix is row-normalized over visited locations; we walk the
//     observed consecutive-visit transitions with a restart to the
//     empirical visit distribution, which reduces to the paper's uniform
//     construction when every location is visited equally often.)
//  2. A Pareto tail probability of moving distance d(si, s): the movement
//     lengths are self-similar, so P[move ≥ x] = (x+1)^(−π) with the
//     shape π fitted by maximum likelihood (Equation 1).
//
// The willingness is Equation 2:
//
//	Pwil(w,s) = Σ_i Pw(w,si) · (d(si,s)+1)^(−π)
//
// # The willingness kernel
//
// Kernel is the one production evaluator of Equation 2; the math.Pow
// form it replaces is kept in the tests as its reference. Every term is
// Pow(x, y) with a base x = d(si,s)+1 ≥ 1 and the worker's exponent
// y = −π. Go's pow reads y only through its special-case tests and
// Modf(|y|), and reads x only through its special-case tests, Log(x)
// (for the fractional power) and Frexp(x) (for the integer power's
// squaring chain). The kernel splits the work along those lines:
//
//   - the exponent {y, yi, yf} is split once per worker, when the kernel
//     is built;
//   - the base {x, Log(x), Frexp(x)}, with the distance, is computed once
//     per (venue, task location) and shared by every worker who visited
//     the venue — history locations are interned, and the BK preset's
//     ~29.6 k location references name only ~3.2 k distinct venues;
//   - each term runs what is left of pow: Exp(yf·Log(x)), the integer
//     squaring loop and Ldexp.
//
// The split is exact, not an approximation: each term runs the floating
// point operations math.Pow would run on (x, y), on the same operands, in
// the same order and through the same math.Exp, Log, Frexp and Ldexp, so
// it has math.Pow's bits; and the terms are summed in the model's
// location order, as the math.Pow form sums them. The pairs pow answers
// before splitting (x == 1, a non-finite x, y ∈ {0, 1, ±0.5}, a
// non-finite or huge y) call math.Pow itself. TestWillingnessKernelMatchesPow
// checks Float64bits equality on a fitted BK model.
//
// Measured on a 2-core box (go1.24, amd64): BenchmarkWillingness on the
// BK model truncated to 8 locations evaluates an entry in 525–552 ns
// against 925–964 ns for the math.Pow form, and the in-process 8k-arrival
// stream replay (dita-sim -stream -arrivals 8000) drops from 17.5 to
// 11.9 user CPU-s with a byte-identical assignment CSV.
package mobility

import (
	"fmt"
	"math"
	"slices"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/parallel"
)

// Config controls HA model fitting. Zero values select defaults: restart
// probability 0.15, power-iteration tolerance 1e-10, 200 max iterations,
// default Pareto shape 2 for degenerate histories, shape clamped to
// [0.05, 16].
type Config struct {
	RestartProb  float64 `json:"restart_prob"`
	Tolerance    float64 `json:"tolerance"`
	MaxIters     int     `json:"max_iters"`
	DefaultShape float64 `json:"default_shape"`
	MinShape     float64 `json:"min_shape"`
	MaxShape     float64 `json:"max_shape"`
	// Parallelism bounds the fitting worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). Per-worker fits are independent and draw no
	// randomness, so the fitted model is bit-identical at any setting.
	// The knob is a runtime choice, not part of the model identity, so
	// the fitted Model does not retain it.
	Parallelism int `json:"parallelism,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.RestartProb <= 0 || c.RestartProb >= 1 {
		c.RestartProb = 0.15
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-10
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 200
	}
	if c.DefaultShape <= 0 {
		c.DefaultShape = 2
	}
	if c.MinShape <= 0 {
		c.MinShape = 0.05
	}
	if c.MaxShape <= 0 {
		c.MaxShape = 16
	}
	return c
}

// WorkerModel is the fitted HA state for one worker: the distinct
// locations of performed tasks, their stationary probabilities, and the
// Pareto shape of the worker's movement lengths.
type WorkerModel struct {
	Locs       []geo.Point
	Stationary []float64
	Shape      float64
}

// Model holds fitted worker models keyed by stable user id.
type Model struct {
	cfg     Config
	workers map[model.WorkerID]*WorkerModel
}

// Fit builds HA models for every worker with a history, fitting workers
// concurrently on the shared pool (each fit is independent: RWR power
// iteration plus the Pareto MLE, no randomness). Histories must be (or
// will be treated as) ordered by check-in time; Fit sorts defensively.
func Fit(histories map[model.WorkerID]model.History, cfg Config) *Model {
	cfg = cfg.withDefaults()
	ids := make([]model.WorkerID, 0, len(histories))
	for id, h := range histories {
		if len(h) == 0 {
			continue
		}
		ids = append(ids, id)
	}
	// Map iteration order is random; sorting pins item indices so every
	// run fits the same worker under the same index.
	slices.Sort(ids)
	fitted := make([]*WorkerModel, len(ids))
	parallel.For(parallel.Workers(cfg.Parallelism), len(ids), func(_, i int) {
		h := histories[ids[i]]
		h.SortByTime()
		fitted[i] = fitWorker(h, cfg)
	})
	cfg.Parallelism = 0 // runtime knob, not model identity
	m := &Model{cfg: cfg, workers: make(map[model.WorkerID]*WorkerModel, len(ids))}
	for i, id := range ids {
		m.workers[id] = fitted[i]
	}
	return m
}

// Worker returns the fitted model for a user, or nil when the user has no
// history.
func (m *Model) Worker(id model.WorkerID) *WorkerModel { return m.workers[id] }

// NumWorkers returns how many workers have fitted models.
func (m *Model) NumWorkers() int { return len(m.workers) }

func fitWorker(h model.History, cfg Config) *WorkerModel {
	// Distinct locations in first-visit order; visits counted per venue.
	index := make(map[model.VenueID]int)
	var locs []geo.Point
	visits := []float64{}
	seq := make([]int, len(h)) // per record: its location state index
	for i, c := range h {
		j, ok := index[c.Venue]
		if !ok {
			j = len(locs)
			index[c.Venue] = j
			locs = append(locs, c.Loc)
			visits = append(visits, 0)
		}
		visits[j]++
		seq[i] = j
	}
	n := len(locs)
	wm := &WorkerModel{
		Locs:       locs,
		Stationary: stationaryRWR(n, seq, visits, cfg),
		Shape:      FitParetoShape(movementSamples(h), cfg),
	}
	return wm
}

// movementSamples returns x_i = d(s_i, s_{i+1}) + 1 over consecutive
// performed tasks, the samples Equation 1's MLE consumes.
func movementSamples(h model.History) []float64 {
	if len(h) < 2 {
		return nil
	}
	xs := make([]float64, 0, len(h)-1)
	for i := 0; i+1 < len(h); i++ {
		xs = append(xs, geo.Dist(h[i].Loc, h[i+1].Loc)+1)
	}
	return xs
}

// FitParetoShape implements Equation 1: π = (n)/Σ ln x_i over n samples
// with x_i ≥ 1 (the paper writes |Sw|−1 samples for a history of |Sw|
// records; here n = len(xs) is already that count). When Σ ln x_i = 0 —
// the worker never moved — the paper's formula is undefined and the
// configured default shape is returned. The result is clamped to
// [MinShape, MaxShape] to keep downstream powers stable.
func FitParetoShape(xs []float64, cfg Config) float64 {
	cfg = cfg.withDefaults()
	if len(xs) == 0 {
		return cfg.DefaultShape
	}
	sumLn := 0.0
	for _, x := range xs {
		if x < 1 {
			x = 1
		}
		sumLn += math.Log(x)
	}
	if sumLn <= 0 {
		return cfg.DefaultShape
	}
	pi := float64(len(xs)) / sumLn
	if pi < cfg.MinShape {
		pi = cfg.MinShape
	}
	if pi > cfg.MaxShape {
		pi = cfg.MaxShape
	}
	return pi
}

// stationaryRWR computes the Random Walk with Restart stationary
// distribution over the worker's n distinct locations. The transition
// matrix follows the observed consecutive-visit transitions (row
// normalized); states without outgoing transitions redistribute uniformly
// (standard dangling-node handling). The restart vector is the empirical
// visit distribution.
func stationaryRWR(n int, seq []int, visits []float64, cfg Config) []float64 {
	if n == 1 {
		return []float64{1}
	}
	// Sparse transition counts, folded into per-state adjacency lists
	// sorted by destination before the power iteration: the hot loop
	// never ranges over a map (iteration order is randomized and the
	// dita-lint maporder invariant forbids accumulating under it), and
	// the presorted slices are cheaper to walk per iteration anyway.
	counts := make([]map[int]float64, n)
	outTotal := make([]float64, n)
	for i := 0; i+1 < len(seq); i++ {
		a, b := seq[i], seq[i+1]
		if counts[a] == nil {
			counts[a] = make(map[int]float64)
		}
		counts[a][b]++
		outTotal[a]++
	}
	type edge struct {
		to int
		w  float64
	}
	trans := make([][]edge, n)
	for a, m := range counts {
		for b, w := range m {
			trans[a] = append(trans[a], edge{to: b, w: w})
		}
		slices.SortFunc(trans[a], func(x, y edge) int { return x.to - y.to })
	}
	// Restart vector: empirical visit frequencies.
	restart := make([]float64, n)
	totalVisits := 0.0
	for _, v := range visits {
		totalVisits += v
	}
	for i, v := range visits {
		restart[i] = v / totalVisits
	}

	p := make([]float64, n)
	next := make([]float64, n)
	copy(p, restart)
	c := 1 - cfg.RestartProb // continue probability
	for iter := 0; iter < cfg.MaxIters; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for a := 0; a < n; a++ {
			if outTotal[a] == 0 {
				dangling += p[a]
				continue
			}
			for _, e := range trans[a] {
				next[e.to] += p[a] * e.w / outTotal[a]
			}
		}
		diff := 0.0
		for i := 0; i < n; i++ {
			v := c*(next[i]+dangling/float64(n)) + cfg.RestartProb*restart[i]
			diff += math.Abs(v - p[i])
			next[i] = v
		}
		p, next = next, p
		if diff < cfg.Tolerance {
			break
		}
	}
	// Normalize defensively against floating point drift.
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum > 0 {
		for i := range p {
			p[i] /= sum
		}
	}
	return p
}

// WorkerWire is one worker's fitted HA state in serialized form.
type WorkerWire struct {
	ID         model.WorkerID `json:"id"`
	Locs       []geo.Point    `json:"locs"`
	Stationary []float64      `json:"stationary"`
	Shape      float64        `json:"shape"`
}

// Wire is the fitted model's serialized form, part of the framework
// artifact's pinned wire format (see internal/fwio). Workers are listed
// in ascending id order so the encoding is canonical: byte-identical
// runs produce byte-identical artifacts.
type Wire struct {
	Config  Config       `json:"config"`
	Workers []WorkerWire `json:"workers"`
}

// Wire returns the model's serialized form. Per-worker slices alias
// model storage; callers must treat them as read-only.
func (m *Model) Wire() Wire {
	ids := make([]model.WorkerID, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w := Wire{Config: m.cfg, Workers: make([]WorkerWire, len(ids))}
	for i, id := range ids {
		wm := m.workers[id]
		w.Workers[i] = WorkerWire{ID: id, Locs: wm.Locs, Stationary: wm.Stationary, Shape: wm.Shape}
	}
	return w
}

// FromWire rebuilds a fitted model from its serialized form. Worker ids
// must be strictly ascending (the canonical order Wire emits; it also
// rules out duplicate entries silently overwriting each other), each
// worker's location and stationary vectors must align, and every value
// must be one Fit can produce: a finite positive shape, finite
// coordinates and finite non-negative stationary probabilities. The
// Parallelism knob is forced to zero, as Fit does: it is a runtime
// choice, not model identity.
func FromWire(w Wire) (*Model, error) {
	cfg := w.Config
	cfg.Parallelism = 0
	m := &Model{cfg: cfg, workers: make(map[model.WorkerID]*WorkerModel, len(w.Workers))}
	for i, ww := range w.Workers {
		if i > 0 && ww.ID <= w.Workers[i-1].ID {
			return nil, fmt.Errorf("mobility: wire workers not strictly ascending at index %d (%d after %d)", i, ww.ID, w.Workers[i-1].ID)
		}
		if len(ww.Locs) == 0 {
			return nil, fmt.Errorf("mobility: wire worker %d has no locations (Fit never emits empty models)", ww.ID)
		}
		if len(ww.Locs) != len(ww.Stationary) {
			return nil, fmt.Errorf("mobility: wire worker %d has %d locations but %d stationary probabilities", ww.ID, len(ww.Locs), len(ww.Stationary))
		}
		if !(ww.Shape > 0) || math.IsInf(ww.Shape, 1) {
			return nil, fmt.Errorf("mobility: wire worker %d has shape %v; a Pareto shape must be finite and positive", ww.ID, ww.Shape)
		}
		for j, p := range ww.Locs {
			if !finite(p.X) || !finite(p.Y) {
				return nil, fmt.Errorf("mobility: wire worker %d location %d is (%v, %v); coordinates must be finite", ww.ID, j, p.X, p.Y)
			}
			if pi := ww.Stationary[j]; !(pi >= 0) || math.IsInf(pi, 1) {
				return nil, fmt.Errorf("mobility: wire worker %d stationary probability %d is %v; it must be finite and non-negative", ww.ID, j, pi)
			}
		}
		m.workers[ww.ID] = &WorkerModel{Locs: ww.Locs, Stationary: ww.Stationary, Shape: ww.Shape}
	}
	return m, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
