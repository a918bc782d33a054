package assign

import (
	"fmt"
	"slices"
	"sort"

	"dita/internal/flow"
	"dita/internal/model"
	"dita/internal/parallel"
)

// Matching decomposes along the connected components of the bipartite
// feasibility graph: no algorithm ever routes flow (or greedy picks)
// between components, so solving each component on its own compact
// network and merging through the global positional pair order is
// exact, not an approximation. Components are solved concurrently;
// every write lands in component-disjoint state, so the output is
// bit-identical at any worker count, including the inline
// single-worker path.

// TileStats describes the component structure of one instant's
// feasibility graph.
type TileStats struct {
	// Components is the number of connected components of the
	// feasibility graph, i.e. the matching's parallelism budget.
	Components int `json:"components,omitempty"`
	// LargestComponent is the pair count of the biggest component — the
	// critical path of the component-parallel solve.
	LargestComponent int `json:"largest_component,omitempty"`
}

// Solve runs the selected algorithm over p.Pairs, which are
// authoritative: a nil or empty list means no feasible pair, and Solve
// never scans the instance itself. It returns the assignment set with
// per-pair influence and travel distance filled in, plus the
// decomposition's shape. The feasibility graph is split into connected
// components, each solved on a compact per-component network (or greedy
// pass) on up to parallelism pool workers (<= 0 means all cores), and
// the results are merged by walking the global pair list, so the set is
// bit-identical at any parallelism. Influence and edge costs are
// evaluated sequentially up front — Problem callbacks are not required
// to be safe for concurrent use — so the parallel phase touches only
// plain, component-disjoint data.
func Solve(alg Algorithm, p *Problem, parallelism int) (*model.AssignmentSet, TileStats) {
	pairs := p.Pairs
	var stats TileStats
	if len(pairs) == 0 {
		return &model.AssignmentSet{}, stats
	}
	nW, nT := len(p.Inst.Workers), len(p.Inst.Tasks)

	infl := make([]float64, len(pairs))
	for i, pr := range pairs {
		infl[i] = p.influence(int(pr.W), int(pr.T))
	}
	var cost []float64
	switch alg {
	case IA, EIA, DIA, MIX:
		cost = make([]float64, len(pairs))
		for i, pr := range pairs {
			cost[i] = edgeCostFromInfluence(alg, p, pr, infl[i])
		}
	case MTA, MI:
	default:
		panic(fmt.Sprintf("assign: unknown algorithm %d", int(alg)))
	}

	compStart, compPairs, largest := components(nW, nT, pairs)
	nComp := len(compStart) - 1
	stats.Components = nComp
	stats.LargestComponent = largest

	taken := make([]bool, len(pairs))
	localW := make([]int32, nW)
	localT := make([]int32, nT)
	var usedW, usedT []bool
	if alg == MI {
		usedW = make([]bool, nW)
		usedT = make([]bool, nT)
	}
	workers := parallel.Workers(parallelism)
	if workers > nComp {
		workers = nComp
	}
	scratch := make([]compScratch, workers)
	parallel.For(workers, nComp, func(worker, c int) {
		idx := compPairs[compStart[c]:compStart[c+1]]
		solveComponent(alg, p, pairs, infl, cost, idx, localW, localT, usedW, usedT, &scratch[worker], taken)
	})
	return collectTaken(p, pairs, infl, taken), stats
}

// components groups the pair list by connected component of the
// bipartite feasibility graph. It returns a CSR over global pair
// indices (ascending within each component) plus the largest
// component's pair count. Components are numbered by first appearance
// along the pair list, so the grouping — and everything downstream — is
// deterministic for a given pair list.
func components(nW, nT int, pairs []Pair) (start, grouped []int32, largest int) {
	// Union-find over workers [0, nW) and tasks [nW, nW+nT), union by
	// smaller node id with path compression: the root of a component is
	// its smallest member, always a worker (every component contains at
	// least one pair).
	parent := make([]int32, nW+nT)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, pr := range pairs {
		a, b := find(pr.W), find(int32(nW)+pr.T)
		if a == b {
			continue
		}
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
	}
	compOf := make([]int32, nW) // indexed by root worker
	for i := range compOf {
		compOf[i] = -1
	}
	nComp := 0
	compIdx := make([]int32, len(pairs))
	for i, pr := range pairs {
		r := find(pr.W)
		c := compOf[r]
		if c < 0 {
			c = int32(nComp)
			compOf[r] = c
			nComp++
		}
		compIdx[i] = c
	}
	start = make([]int32, nComp+1)
	for _, c := range compIdx {
		start[c+1]++
	}
	for c := 0; c < nComp; c++ {
		if int(start[c+1]) > largest {
			largest = int(start[c+1])
		}
		start[c+1] += start[c]
	}
	grouped = make([]int32, len(pairs))
	cursor := append([]int32(nil), start[:nComp]...)
	for i, c := range compIdx {
		grouped[cursor[c]] = int32(i)
		cursor[c]++
	}
	return start, grouped, largest
}

// compScratch is the per-pool-worker reusable state of the component
// solves; components touch it one at a time per worker.
type compScratch struct {
	wIDs  []int32
	tIDs  []int32
	edges []int
	order []int32
}

// solveComponent solves one component and marks its chosen pairs in the
// global taken bitmap. All writes are component-disjoint: taken slots
// belong to this component's pairs, localW/localT and usedW/usedT slots
// to its workers and tasks.
func solveComponent(alg Algorithm, p *Problem, pairs []Pair, infl, cost []float64, idx []int32, localW, localT []int32, usedW, usedT []bool, sc *compScratch, taken []bool) {
	if alg == MI {
		// The paper's greedy decomposes exactly: whether a pair is taken
		// depends only on earlier picks sharing its worker or task, which
		// are by definition in the same component.
		order := append(sc.order[:0], idx...)
		sort.Slice(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if infl[ia] != infl[ib] {
				return infl[ia] > infl[ib]
			}
			if pairs[ia].W != pairs[ib].W {
				return pairs[ia].W < pairs[ib].W
			}
			return pairs[ia].T < pairs[ib].T
		})
		for _, gi := range order {
			pr := pairs[gi]
			if usedW[pr.W] || usedT[pr.T] {
				continue
			}
			usedW[pr.W] = true
			usedT[pr.T] = true
			taken[gi] = true
		}
		sc.order = order
		return
	}

	// Flow algorithms: build the Figure-4 network over just this
	// component's workers and tasks, edges in global pair order.
	wIDs := sc.wIDs[:0]
	tIDs := sc.tIDs[:0]
	for _, gi := range idx {
		wIDs = append(wIDs, pairs[gi].W)
		tIDs = append(tIDs, pairs[gi].T)
	}
	slices.Sort(wIDs)
	slices.Sort(tIDs)
	wIDs = slices.Compact(wIDs)
	tIDs = slices.Compact(tIDs)
	for li, w := range wIDs {
		localW[w] = int32(li)
	}
	for li, t := range tIDs {
		localT[t] = int32(li)
	}
	nw, nt := len(wIDs), len(tIDs)
	g := flow.NewNetwork(nw + nt + 2)
	s, t := 0, nw+nt+1
	for i := 0; i < nw; i++ {
		g.AddEdge(s, 1+i, 1, 0)
	}
	for j := 0; j < nt; j++ {
		g.AddEdge(1+nw+j, t, 1, 0)
	}
	edges := sc.edges[:0]
	for _, gi := range idx {
		pr := pairs[gi]
		c := 0.0
		if cost != nil {
			c = cost[gi]
		}
		edges = append(edges, g.AddEdge(1+int(localW[pr.W]), 1+nw+int(localT[pr.T]), 1, c))
	}
	switch alg {
	case MTA:
		g.MaxFlow(s, t)
	case MIX:
		g.MinCostFlowNonPositive(s, t)
	default: // IA, EIA, DIA
		g.MinCostMaxFlow(s, t)
	}
	for k, gi := range idx {
		if g.Flow(edges[k]) > 0 {
			taken[gi] = true
		}
	}
	sc.wIDs, sc.tIDs, sc.edges = wIDs, tIDs, edges
}

// collectTaken emits the taken pairs with their pre-evaluated influence
// values in global pair-position order, so the output is independent of
// how components were scheduled.
func collectTaken(p *Problem, pairs []Pair, infl []float64, taken []bool) *model.AssignmentSet {
	out := &model.AssignmentSet{}
	for i, pr := range pairs {
		if !taken[i] {
			continue
		}
		out.Pairs = append(out.Pairs, model.Assignment{
			Task:   model.TaskID(pr.T),
			Worker: model.WorkerID(pr.W),
		})
		out.Influence = append(out.Influence, infl[i])
		out.TravelKm = append(out.TravelKm, pr.Dist)
	}
	return out
}
