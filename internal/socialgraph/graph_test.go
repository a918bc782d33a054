package socialgraph

import (
	"math"
	"testing"

	"dita/internal/randx"
)

func TestNewBasics(t *testing.T) {
	g, err := New(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N=%d M=%d, want 4/5", g.N(), g.M())
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Out(0) = %v, want [1 2]", got)
	}
	if got := g.In(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("In(2) = %v, want [0 1]", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Errorf("degrees of 0 = out %d in %d, want 2/1", g.OutDegree(0), g.InDegree(0))
	}
}

func TestNewDropsSelfLoopsAndDuplicates(t *testing.T) {
	g, err := New(3, []Edge{{0, 1}, {0, 1}, {1, 1}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2 (dup and self-loop dropped)", g.M())
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 2}}); err == nil {
		t.Error("edge to node 2 in a 2-node graph accepted")
	}
	if _, err := New(2, []Edge{{-1, 0}}); err == nil {
		t.Error("negative endpoint accepted")
	}
	if _, err := New(-1, nil); err == nil {
		t.Error("negative node count accepted")
	}
}

func TestHasEdge(t *testing.T) {
	g := MustNew(5, []Edge{{0, 3}, {3, 1}, {1, 4}})
	for _, tc := range []struct {
		u, v int32
		want bool
	}{
		{0, 3, true}, {3, 1, true}, {1, 4, true},
		{3, 0, false}, {0, 1, false}, {4, 4, false},
	} {
		if got := g.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestInformProb(t *testing.T) {
	// Node 2 has in-degree 3 → each in-edge informs with probability 1/3.
	g := MustNew(4, []Edge{{0, 2}, {1, 2}, {3, 2}, {2, 0}})
	if got := g.InformProb(0, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("InformProb(0,2) = %v, want 1/3", got)
	}
	if got := g.InformProb(2, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("InformProb(2,0) = %v, want 1 (in-degree 1)", got)
	}
	if got := g.InformProb(0, 1); got != 0 {
		t.Errorf("InformProb into isolated-in node = %v, want 0", got)
	}
}

// weaklyConnectedComponents labels every node with a component id
// (0-based, by discovery order) ignoring edge directions, and returns the
// label slice plus the component count: the connectivity oracle of the
// generator tests.
func weaklyConnectedComponents(g *Graph) ([]int32, int) {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	var queue []int32
	for s := int32(0); s < int32(g.N()); s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Out(u) {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
			for _, v := range g.In(u) {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

func TestWeaklyConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} (via directed edges either way) and {3,4}.
	g := MustNew(5, []Edge{{0, 1}, {2, 1}, {4, 3}})
	comp, n := weaklyConnectedComponents(g)
	if n != 2 {
		t.Fatalf("component count = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("nodes 0-2 not in one component: %v", comp)
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Errorf("nodes 3-4 wrong component: %v", comp)
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	rng := randx.New(42)
	const n, m = 500, 3
	g := GeneratePreferentialAttachment(n, m, rng)
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}
	// Symmetric: every edge has its reverse.
	for _, e := range g.Edges() {
		if !g.HasEdge(e.To, e.From) {
			t.Fatalf("PA graph not symmetric: (%d,%d) present, reverse missing", e.From, e.To)
		}
	}
	// Connected (PA attaches every newcomer to the existing component).
	_, comps := weaklyConnectedComponents(g)
	if comps != 1 {
		t.Errorf("PA graph has %d components, want 1", comps)
	}
	// Heavy tail: the max degree should far exceed the mean.
	meanDeg := float64(g.M()) / float64(n)
	maxDeg := 0
	for u := int32(0); u < int32(n); u++ {
		if d := g.OutDegree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 4*meanDeg {
		t.Errorf("max degree %d vs mean %.1f: degree distribution suspiciously flat", maxDeg, meanDeg)
	}
}

func TestPreferentialAttachmentDeterministic(t *testing.T) {
	a := GeneratePreferentialAttachment(200, 2, randx.New(7))
	b := GeneratePreferentialAttachment(200, 2, randx.New(7))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestInformProbSumsToOneOverInNeighbors(t *testing.T) {
	// For every node v with in-degree > 0, Σ_u InformProb(u, v) over its
	// in-neighbors is exactly 1 — the paper's 1/id_e normalization.
	g := GeneratePreferentialAttachment(120, 3, randx.New(21))
	for v := int32(0); v < int32(g.N()); v++ {
		in := g.In(v)
		if len(in) == 0 {
			continue
		}
		sum := 0.0
		for _, u := range in {
			sum += g.InformProb(u, v)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("node %d: in-probabilities sum to %v", v, sum)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustNew(0, nil)
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph N=%d M=%d", g.N(), g.M())
	}
	comp, n := weaklyConnectedComponents(g)
	if len(comp) != 0 || n != 0 {
		t.Errorf("empty graph components = %v, %d", comp, n)
	}
}
