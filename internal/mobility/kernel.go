package mobility

import (
	"math"

	"dita/internal/geo"
	"dita/internal/model"
)

// Kernel is the production form of Equation 2 over a fixed user range:
// every user's (optionally truncated) fitted model flattened into one
// read-only structure that any number of goroutines evaluate at once,
// each with its own Scratch.
//
// History locations are interned into one venue table keyed by their
// exact coordinate bits, and user u's terms are the CSR run
// terms[off[u]:off[u+1]] of (venue, π) pairs in the model's location
// order, so every sum adds the same products in the same order as
// Σ_i π_i·math.Pow(d_i+1, −shape). Each user's exponent is split once at
// build time (see the package comment), and the scratch shares each
// venue's distance, Log and Frexp among all users who visited it.
type Kernel struct {
	venues []geo.Point
	off    []int32
	terms  []term
	exps   []exponent
}

type term struct {
	venue int32
	pi    float64
}

// exponent is a worker's y = −shape as Go's pow reads it: y itself for
// the final inversion, and the Modf split of |y| with a fraction above
// one half rounded into the integer part.
type exponent struct {
	y  float64
	yi int64
	yf float64
	// special marks the exponents pow answers before splitting y (0, 1,
	// ±0.5, NaN, ±Inf, |y| ≥ 2^63); they are evaluated by math.Pow.
	special bool
}

// base is one venue's share of every term at the current task location:
// x = d+1 and the two functions of x pow computes, Log(x) and Frexp(x).
type base struct {
	stamp uint32
	x     float64
	log   float64
	frac  float64
	exp   int
	// special marks the bases pow answers before splitting y (x == 1,
	// NaN or +Inf); they are evaluated by math.Pow.
	special bool
}

// NewKernel builds the kernel for users [0, users). A positive top keeps
// only each user's top highest-stationary-probability locations,
// renormalised to sum to one; top <= 0 keeps all. Users without a fitted
// model have no terms and zero willingness everywhere.
func NewKernel(m *Model, users, top int) *Kernel {
	k := &Kernel{off: make([]int32, users+1), exps: make([]exponent, users)}
	index := make(map[[2]uint64]int32)
	for u := 0; u < users; u++ {
		if wm := m.Worker(model.WorkerID(u)); wm != nil {
			if top > 0 && len(wm.Locs) > top {
				wm = truncate(wm, top)
			}
			for i, p := range wm.Locs {
				key := [2]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)}
				v, ok := index[key]
				if !ok {
					v = int32(len(k.venues))
					index[key] = v
					k.venues = append(k.venues, p)
				}
				k.terms = append(k.terms, term{venue: v, pi: wm.Stationary[i]})
			}
			k.exps[u] = newExponent(-wm.Shape)
		}
		k.off[u+1] = int32(len(k.terms))
	}
	return k
}

// truncate returns the model limited to its top highest-stationary
// locations, in selection order, with the kept probabilities
// renormalised so they stay a distribution.
func truncate(wm *WorkerModel, top int) *WorkerModel {
	type ip struct {
		i int
		p float64
	}
	items := make([]ip, len(wm.Stationary))
	for i, p := range wm.Stationary {
		items[i] = ip{i, p}
	}
	// Partial selection of the top locations (selection sort over `top`
	// slots; top is a small constant).
	for a := 0; a < top; a++ {
		best := a
		for b := a + 1; b < len(items); b++ {
			if items[b].p > items[best].p {
				best = b
			}
		}
		items[a], items[best] = items[best], items[a]
	}
	t := &WorkerModel{Shape: wm.Shape}
	mass := 0.0
	for _, it := range items[:top] {
		mass += it.p
	}
	for _, it := range items[:top] {
		t.Locs = append(t.Locs, wm.Locs[it.i])
		t.Stationary = append(t.Stationary, it.p/mass)
	}
	return t
}

func newExponent(y float64) exponent {
	e := exponent{y: y}
	if y == 0 || y == 1 || y == 0.5 || y == -0.5 || math.IsNaN(y) || math.IsInf(y, 0) {
		e.special = true
		return e
	}
	yi, yf := math.Modf(math.Abs(y))
	if yi >= 1<<63 {
		e.special = true
		return e
	}
	if yf > 0.5 {
		yf--
		yi++
	}
	e.yi, e.yf = int64(yi), yf
	return e
}

// pow returns math.Pow(b.x, e.y) bit for bit: it is Go's pow with the
// special cases, Modf(|y|), Log(x) and Frexp(x) already done.
func (e *exponent) pow(b *base) float64 {
	if e.special || b.special {
		return math.Pow(b.x, e.y)
	}
	a1, ae := 1.0, 0
	if e.yf != 0 {
		a1 = math.Exp(e.yf * b.log)
	}
	x1, xe := b.frac, b.exp
	for i := e.yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if e.y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// Scratch caches venue bases for one goroutine's kernel evaluations. A
// base is valid while the task location stays the same; moving to
// another location advances the stamp, which invalidates every base at
// once.
type Scratch struct {
	loc   [2]uint64
	stamp uint32 // 0 until the first evaluation
	bases []base
}

// NewScratch returns an empty scratch sized for the kernel's venues.
func (k *Kernel) NewScratch() *Scratch {
	return &Scratch{bases: make([]base, len(k.venues))}
}

// Willingness returns Pwil(u, loc) (Equation 2), bit-identical to
// Σ_i π_i·math.Pow(Dist(venue_i, loc)+1, −shape) over u's kept locations
// in model order; zero when u has no model. sc must not be shared between
// concurrent calls.
func (k *Kernel) Willingness(u int, loc geo.Point, sc *Scratch) float64 {
	if key := [2]uint64{math.Float64bits(loc.X), math.Float64bits(loc.Y)}; sc.stamp == 0 || key != sc.loc {
		sc.loc = key
		sc.stamp++
		if sc.stamp == 0 {
			for i := range sc.bases {
				sc.bases[i].stamp = 0
			}
			sc.stamp = 1
		}
	}
	e := &k.exps[u]
	sum := 0.0
	for _, t := range k.terms[k.off[u]:k.off[u+1]] {
		b := &sc.bases[t.venue]
		if b.stamp != sc.stamp {
			*b = newBase(geo.Dist(k.venues[t.venue], loc), sc.stamp)
		}
		sum += t.pi * e.pow(b)
	}
	return sum
}

func newBase(d float64, stamp uint32) base {
	b := base{stamp: stamp, x: d + 1}
	if !(b.x > 1) || math.IsInf(b.x, 1) {
		b.special = true
		return b
	}
	b.log = math.Log(b.x)
	b.frac, b.exp = math.Frexp(b.x)
	return b
}

// Worker returns user u's model as the kernel evaluates it (truncated
// and renormalised when the kernel was built with a positive top), or
// nil when u has none. The slices are fresh copies.
func (k *Kernel) Worker(u int) *WorkerModel {
	run := k.terms[k.off[u]:k.off[u+1]]
	if len(run) == 0 {
		return nil
	}
	wm := &WorkerModel{Shape: -k.exps[u].y}
	for _, t := range run {
		wm.Locs = append(wm.Locs, k.venues[t.venue])
		wm.Stationary = append(wm.Stationary, t.pi)
	}
	return wm
}
