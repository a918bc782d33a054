package mobility

import (
	"fmt"
	"math"
	"testing"

	"dita/internal/dataset"
	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/parallel"
	"dita/internal/paralleltest"
	"dita/internal/randx"
)

// Willingness is the math.Pow form of Equation 2, the reference the
// production Kernel must match bit for bit. A worker with no history has
// zero willingness everywhere (they have never accepted anything).
func (wm *WorkerModel) Willingness(loc geo.Point) float64 {
	sum := 0.0
	for i, p := range wm.Locs {
		d := geo.Dist(p, loc)
		sum += wm.Stationary[i] * math.Pow(d+1, -wm.Shape)
	}
	return sum
}

// Willingness is the reference Pwil(w, s) for user id; zero when the
// user has no history.
func (m *Model) Willingness(id model.WorkerID, loc geo.Point) float64 {
	wm := m.workers[id]
	if wm == nil {
		return 0
	}
	return wm.Willingness(loc)
}

// bkFixture fits HA models on a BK-like dataset with users and venues
// scaled down by scale (1 is the full preset; the per-venue sharing of
// history locations stays close to the preset's) and returns the model,
// its user count and the locations of the tasks performed on the day
// after the training cutoff (real task locations, many repeated).
func bkFixture(t testing.TB, scale int) (*Model, int, []geo.Point) {
	t.Helper()
	p := dataset.BrightkiteLike()
	p.NumUsers /= scale
	p.NumVenues /= scale
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := float64(p.Days-1) * 24
	m := Fit(data.HistoriesBefore(cutoff), Config{})
	var tasks []geo.Point
	for _, c := range data.CheckIns {
		if c.Arrive >= cutoff {
			tasks = append(tasks, c.Loc)
		}
	}
	return m, p.NumUsers, tasks
}

// withShapes returns m with extra users after the last one (ids users,
// users+1, ...): one per listed shape, all sharing m's first user's
// locations, so the exponents Pow treats specially (0.5 splits into
// Sqrt, 1 and 2 have no fraction) meet real distances.
func withShapes(t testing.TB, m *Model, users int, shapes []float64) *Model {
	t.Helper()
	w := m.Wire()
	src := w.Workers[0]
	for i, s := range shapes {
		w.Workers = append(w.Workers, WorkerWire{ID: model.WorkerID(users + i), Locs: src.Locs, Stationary: src.Stationary, Shape: s})
	}
	out, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWillingnessKernelMatchesPow is the equivalence gate of the
// production kernel: on a fitted BK model, for every user (including
// users with no model) at every real task location, every visited
// venue (x == 1) and random points, Kernel.Willingness equals the
// math.Pow reference bit for bit, with and without truncation, at every
// Parallelism. Extra users carry the shapes 0.5, 1, 2 and the clamp
// bounds MinShape and MaxShape.
func TestWillingnessKernelMatchesPow(t *testing.T) {
	m, users, tasks := bkFixture(t, 16)
	cfg := Config{}.withDefaults()
	shapes := []float64{0.5, 1, 2, cfg.MinShape, cfg.MaxShape, 0.75, 1.5}
	m = withShapes(t, m, users, shapes)
	users += len(shapes) + 3 // three trailing users have no model

	// Every interned venue is some user's history location, so each user
	// meets x == 1 at each of its own venues.
	locs := append(append([]geo.Point(nil), tasks...), NewKernel(m, users, 0).venues...)
	rng := randx.New(3)
	for i := 0; i < 40; i++ {
		locs = append(locs, geo.Point{X: rng.Float64() * 400, Y: rng.Float64() * 400})
	}

	for _, top := range []int{0, 3} {
		k := NewKernel(m, users, top)
		if 2*len(k.venues) >= len(k.terms) {
			t.Fatalf("top %d: %d venues for %d terms; venues are barely shared", top, len(k.venues), len(k.terms))
		}
		for _, par := range paralleltest.WorkerCounts {
			scratch := make([]*Scratch, par)
			for i := range scratch {
				scratch[i] = k.NewScratch()
			}
			bad := make([]string, len(locs))
			parallel.For(par, len(locs), func(w, i int) {
				for u := 0; u < users; u++ {
					got := k.Willingness(u, locs[i], scratch[w])
					want := 0.0
					if wm := k.Worker(u); wm != nil {
						want = wm.Willingness(locs[i])
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						bad[i] = fmt.Sprintf("user %d at %v: kernel %v (%#x), math.Pow %v (%#x)",
							u, locs[i], got, math.Float64bits(got), want, math.Float64bits(want))
						return
					}
				}
			})
			for _, msg := range bad {
				if msg != "" {
					t.Fatalf("top %d parallelism %d: %s", top, par, msg)
				}
			}
		}
	}
}

// TestKernelWorkerIsFittedModel: without truncation the kernel holds
// every user's fitted model unchanged, so the reference it is checked
// against is the model Fit produced.
func TestKernelWorkerIsFittedModel(t *testing.T) {
	m, users, _ := bkFixture(t, 16)
	k := NewKernel(m, users+2, 0)
	for u := 0; u < users+2; u++ {
		want, got := m.Worker(model.WorkerID(u)), k.Worker(u)
		if (want == nil) != (got == nil) {
			t.Fatalf("user %d: fitted model %v, kernel model %v", u, want != nil, got != nil)
		}
		if want == nil {
			continue
		}
		if got.Shape != want.Shape || len(got.Locs) != len(want.Locs) {
			t.Fatalf("user %d: kernel model %+v, fitted %+v", u, got, want)
		}
		for i := range want.Locs {
			if got.Locs[i] != want.Locs[i] || got.Stationary[i] != want.Stationary[i] {
				t.Fatalf("user %d location %d: kernel (%v, %v), fitted (%v, %v)", u, i, got.Locs[i], got.Stationary[i], want.Locs[i], want.Stationary[i])
			}
		}
	}
}

// TestKernelTruncationKeepsTopMass: a truncated user keeps its top
// highest-stationary locations, renormalised to a distribution.
func TestKernelTruncationKeepsTopMass(t *testing.T) {
	h := model.History{
		record(0, 0, 0, 0, 1),
		record(0, 1, 9, 9, 2),
		record(0, 0, 0, 0, 3),
		record(0, 2, 5, 0, 4),
		record(0, 0, 0, 0, 5),
		record(0, 2, 5, 0, 6),
	}
	m := Fit(map[model.WorkerID]model.History{0: h}, Config{})
	wm := NewKernel(m, 1, 2).Worker(0)
	if len(wm.Locs) != 2 || wm.Locs[0] != (geo.Point{}) || wm.Locs[1] != (geo.Point{X: 5}) {
		t.Fatalf("truncated locations %v, want the two most visited", wm.Locs)
	}
	if s := wm.Stationary[0] + wm.Stationary[1]; math.Abs(s-1) > 1e-12 {
		t.Errorf("truncated stationary %v sums to %v", wm.Stationary, s)
	}
}

// TestKernelScratchStampWrap: when the scratch stamp wraps, every cached
// base is invalidated, so a venue cached at an old location is never read
// at a new one.
func TestKernelScratchStampWrap(t *testing.T) {
	m, users, tasks := bkFixture(t, 16)
	k := NewKernel(m, users, 0)
	sc := k.NewScratch()
	a, b := tasks[0], tasks[len(tasks)-1]
	if a == b {
		t.Fatal("fixture tasks share a location")
	}
	for u := 0; u < users; u++ {
		k.Willingness(u, a, sc)
	}
	// The next location change wraps the stamp back to the one every
	// base cached at a now holds.
	sc.stamp = math.MaxUint32
	k.Willingness(0, b, sc)
	if sc.stamp != 1 {
		t.Fatalf("stamp after wrap = %d, want 1", sc.stamp)
	}
	for u := 0; u < users; u++ {
		want := 0.0
		if wm := m.Worker(model.WorkerID(u)); wm != nil {
			want = wm.Willingness(b)
		}
		if got := k.Willingness(u, b, sc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("user %d after stamp wrap: kernel %v, math.Pow %v", u, got, want)
		}
	}
}
