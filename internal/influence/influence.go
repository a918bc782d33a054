// Package influence combines the three modeled factors — worker-task
// affinity (LDA), worker willingness (Historical Acceptance) and worker
// propagation (RPO over RRR sets) — into the paper's worker-task
// influence (Section III-D):
//
//	if(ws, s) = Paff(ws, s) · Σ_{wi ∈ W\{ws}} Pwil(wi, s) · Ppro(ws, wi)
//
// where W is the whole worker set of the social network, not only the
// workers online at the instance.
//
// The package also implements the component masks behind the paper's
// ablation variants (Fig. 5–8): IA-WP drops affinity, IA-AP drops
// willingness and IA-AW drops propagation; a dropped factor is replaced
// by the neutral constant 1.
package influence

import (
	"fmt"

	"dita/internal/assign"
	"dita/internal/lda"
	"dita/internal/mobility"
	"dita/internal/model"
	"dita/internal/rrr"
)

// Components selects which factors participate in the influence product.
type Components uint8

// Component bits. All enables the full model (the IA algorithm);
// the three two-factor masks are the paper's ablations.
const (
	Affinity Components = 1 << iota
	Willingness
	Propagation

	All = Affinity | Willingness | Propagation
	// WP is the IA-WP variant: willingness + propagation, no affinity.
	WP = Willingness | Propagation
	// AP is the IA-AP variant: affinity + propagation, no willingness.
	AP = Affinity | Propagation
	// AW is the IA-AW variant: affinity + willingness, no propagation.
	AW = Affinity | Willingness
)

// String names the mask the way the paper does.
func (c Components) String() string {
	switch c {
	case All:
		return "IA"
	case WP:
		return "IA-WP"
	case AP:
		return "IA-AP"
	case AW:
		return "IA-AW"
	default:
		s := ""
		if c&Affinity != 0 {
			s += "A"
		}
		if c&Willingness != 0 {
			s += "W"
		}
		if c&Propagation != 0 {
			s += "P"
		}
		if s == "" {
			return "none"
		}
		return s
	}
}

// ParseComponents parses a mask name as String prints it (IA, IA-WP,
// IA-AP, IA-AW) or by its short alias (all, WP, AP, AW).
func ParseComponents(s string) (Components, error) {
	switch s {
	case "IA", "all", "ALL":
		return All, nil
	case "IA-WP", "WP":
		return WP, nil
	case "IA-AP", "AP":
		return AP, nil
	case "IA-AW", "AW":
		return AW, nil
	}
	return 0, fmt.Errorf("influence: unknown mask %q (want IA, IA-WP, IA-AP or IA-AW)", s)
}

// Engine owns the trained models and produces per-instance evaluators.
type Engine struct {
	// Prop is the RRR collection over the full social graph.
	Prop *rrr.Collection
	// Wil is the willingness kernel over the graph's users, built once
	// from the fitted Historical Acceptance model (mobility.NewKernel)
	// and shared read-only by every session. Its top-locations bound caps
	// how many of a worker's highest-stationary-mass locations each entry
	// Pwil(u, s) sums over: it bounds the cost of every computed entry
	// (entries are computed on demand, see Session) and preserves ≥95% of
	// the mass on heavy-tailed visit distributions.
	Wil *mobility.Kernel
	// LDA is the trained topic model; ThetaUser[u] is user u's
	// document-topic distribution (nil or uniform when the user has no
	// history).
	LDA       *lda.Model
	ThetaUser [][]float64
}

// rootCount is a compacted view of the RRR cover of one instance worker:
// how many sets rooted at Root contain the worker.
type rootCount struct {
	root  int32
	count int32
}

// Evaluator answers influence queries for one time instance. Build it
// once per instance (via Prepare) and share it across every assignment
// algorithm so all of them price the same pairs identically.
type Evaluator struct {
	comps Components
	nW    int // instance workers
	nT    int // instance tasks
	nU    int // users in the social graph

	// users[w] is the graph/user id of instance worker w.
	users []int32
	// thetaW[w], thetaT[t]: topic distributions.
	thetaW [][]float64
	thetaT [][]float64
	// wilRows[t][u] = Pwil(u, task t's location) in float32, valid only
	// where bit u of wilFill[t] is set: the session fills the entries the
	// declared pairs read (the RRR roots of t's feasible workers, or the
	// whole row under IA-AW). Rows are owned by the session that built the
	// evaluator, so a carried-over task costs no copy; later instants may
	// fill more entries but never change a filled one.
	wilRows [][]float32
	wilFill [][]uint64
	// wilColSum[t] = Σ_u Pwil(u, t) over the complete row — used by the AW
	// mask where the propagation factor is neutral.
	wilColSum []float64
	// roots[w] lists (root, multiplicity) over RRR sets containing the
	// instance worker w; scale converts a multiplicity into Ppro.
	roots [][]rootCount
	scale float64
	// propSum[w] = Σ_{wi≠ws} Ppro(ws, wi) for instance worker w — the AP
	// numerator and the Average Propagation metric.
	propSum []float64
}

// Prepare computes the per-instance state for evaluating if(w, s) on the
// declared pairs of the instance under the given component mask. It is a
// thin wrapper over a single-use Session, so a cold Prepare and a warm
// session answer every declared pair bit-identically: per-task LDA
// fold-in streams are keyed by stable task identity (randx.Mix(seed,
// Task.ID)), never by the task's position in the instance. Task IDs must
// therefore be unique within the instance. The session computes on all
// cores; the result is bit-identical at any pool width.
func (e *Engine) Prepare(inst *model.Instance, pairs []assign.Pair, comps Components, seed uint64) *Evaluator {
	return e.NewSession(comps, seed, 0).Evaluate(inst, pairs)
}

func compactRoots(c *rrr.Collection, user int32) []rootCount {
	// RootCounts returns (root, multiplicity) pairs already sorted by
	// root id, so float summation order — and therefore every influence
	// value — is deterministic run to run.
	roots, ns := c.RootCounts(user)
	out := make([]rootCount, len(roots))
	for i := range roots {
		out[i] = rootCount{root: roots[i], count: ns[i]}
	}
	return out
}

func propagationSum(roots []rootCount, self int32, scale float64) float64 {
	sum := 0.0
	for _, rc := range roots {
		if rc.root == self {
			continue
		}
		v := scale * float64(rc.count)
		if v > 1 {
			v = 1
		}
		sum += v
	}
	return sum
}

func uniformTopics(k int) []float64 {
	u := make([]float64, k)
	for i := range u {
		u[i] = 1 / float64(k)
	}
	return u
}

// Influence returns if(w, s) for instance worker index w and task index
// t under the evaluator's component mask. When the mask includes
// willingness, (w, t) must be one of the pairs the evaluator was built
// for: a read of a willingness entry that was never computed panics.
func (ev *Evaluator) Influence(w, t int) float64 {
	aff := 1.0
	if ev.comps&Affinity != 0 {
		aff = lda.Affinity(ev.thetaW[w], ev.thetaT[t])
	}
	var spread float64
	switch {
	case ev.comps&Propagation != 0 && ev.comps&Willingness != 0:
		// Σ_{wi≠ws} Pwil(wi,s) · Ppro(ws,wi), via the RRR cover of ws.
		row, filled := ev.wilRows[t], ev.wilFill[t]
		self := ev.users[w]
		for _, rc := range ev.roots[w] {
			if rc.root == self {
				continue
			}
			if !isFilled(filled, rc.root) {
				undeclared(w, t)
			}
			p := ev.scale * float64(rc.count)
			if p > 1 {
				p = 1
			}
			spread += float64(row[rc.root]) * p
		}
	case ev.comps&Propagation != 0:
		// Willingness neutral (IA-AP): Σ Ppro(ws, wi).
		spread = ev.propSum[w]
	case ev.comps&Willingness != 0:
		// Propagation neutral (IA-AW): Σ_{wi≠ws} Pwil(wi, s).
		u := ev.users[w]
		if !isFilled(ev.wilFill[t], u) {
			undeclared(w, t)
		}
		spread = ev.wilColSum[t] - float64(ev.wilRows[t][u])
	default:
		// Neither spread factor: the influence degenerates to affinity.
		spread = 1
	}
	return aff * spread
}

// isFilled reports whether bit u of a willingness fill bitset is set.
func isFilled(filled []uint64, u int32) bool {
	return filled[u>>6]&(1<<(uint(u)&63)) != 0
}

func undeclared(w, t int) {
	panic(fmt.Sprintf("influence: pair (worker %d, task %d) was not declared to the evaluator; its willingness was never computed", w, t))
}

// PropagationSum returns Σ_{wi≠ws} Ppro(ws, wi) for instance worker w —
// the per-worker term of the Average Propagation metric (Equation 7).
func (ev *Evaluator) PropagationSum(w int) float64 { return ev.propSum[w] }

// NumWorkers returns the instance worker count the evaluator was built
// for.
func (ev *Evaluator) NumWorkers() int { return ev.nW }

// NumTasks returns the instance task count the evaluator was built for.
func (ev *Evaluator) NumTasks() int { return ev.nT }

// Components returns the active component mask.
func (ev *Evaluator) Components() Components { return ev.comps }
