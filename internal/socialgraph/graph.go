// Package socialgraph implements the directed social network substrate
// the worker-propagation component runs on: a compact CSR graph with both
// out- and in-adjacency, the in-degree-based edge probabilities the paper
// assigns to the Independent Cascade model (P_j = 1/id_e), and a generator
// that produces Brightkite/FourSquare-like topologies (heavy-tailed degree
// distributions via preferential attachment).
package socialgraph

import (
	"fmt"
	"sort"

	"dita/internal/randx"
)

// Edge is a directed edge from From to To: From can inform To. The JSON
// tags are part of the framework artifact's pinned wire format (see
// internal/fwio).
type Edge struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// Graph is an immutable directed graph over n nodes stored in CSR form.
// Both orientations are materialized because forward IC simulation walks
// out-edges while RRR sampling walks in-edges.
type Graph struct {
	n int
	// out adjacency
	outStart []int32
	outTo    []int32
	// in adjacency
	inStart []int32
	inFrom  []int32
}

// New builds a graph over n nodes from the given edge list. Self-loops and
// duplicate edges are dropped; out-of-range endpoints cause an error.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("socialgraph: negative node count %d", n)
	}
	clean := make([]Edge, 0, len(edges))
	seen := make(map[Edge]bool, len(edges))
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("socialgraph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		if e.From == e.To || seen[e] {
			continue
		}
		seen[e] = true
		clean = append(clean, e)
	}
	g := &Graph{n: n}
	g.outStart, g.outTo = buildCSR(n, clean, func(e Edge) (int32, int32) { return e.From, e.To })
	g.inStart, g.inFrom = buildCSR(n, clean, func(e Edge) (int32, int32) { return e.To, e.From })
	return g, nil
}

// MustNew is New but panics on error; intended for generators and tests
// whose inputs are correct by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func buildCSR(n int, edges []Edge, key func(Edge) (int32, int32)) (start, adj []int32) {
	start = make([]int32, n+1)
	for _, e := range edges {
		s, _ := key(e)
		start[s+1]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	adj = make([]int32, len(edges))
	cursor := make([]int32, n)
	copy(cursor, start[:n])
	for _, e := range edges {
		s, t := key(e)
		adj[cursor[s]] = t
		cursor[s]++
	}
	// Sort each adjacency list for determinism and cache-friendly scans.
	for i := 0; i < n; i++ {
		seg := adj[start[i]:start[i+1]]
		sort.Slice(seg, func(a, b int) bool { return seg[a] < seg[b] })
	}
	return start, adj
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return len(g.outTo) }

// Out returns the out-neighbors of u (nodes u can inform). The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Out(u int32) []int32 { return g.outTo[g.outStart[u]:g.outStart[u+1]] }

// In returns the in-neighbors of v (nodes that can inform v). The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) In(v int32) []int32 { return g.inFrom[g.inStart[v]:g.inStart[v+1]] }

// OutDegree returns |Out(u)|.
func (g *Graph) OutDegree(u int32) int { return int(g.outStart[u+1] - g.outStart[u]) }

// InDegree returns |In(v)|.
func (g *Graph) InDegree(v int32) int { return int(g.inStart[v+1] - g.inStart[v]) }

// HasEdge reports whether the directed edge (u,v) exists.
func (g *Graph) HasEdge(u, v int32) bool {
	adj := g.Out(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// InformProb returns the paper's informed probability for the edge (u,v):
// 1/id_e where id_e is the in-degree of v (the number of edges sharing v
// as end point). It is zero when v has no in-edges (then no edge (u,v)
// exists either).
func (g *Graph) InformProb(u, v int32) float64 {
	d := g.InDegree(v)
	if d == 0 {
		return 0
	}
	return 1 / float64(d)
}

// Edges reconstructs the (deduplicated, sorted) edge list. Intended for
// persistence and tests, not hot paths.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	for u := int32(0); u < int32(g.n); u++ {
		for _, v := range g.Out(u) {
			edges = append(edges, Edge{From: u, To: v})
		}
	}
	return edges
}

// Wire is the graph's serialized form: the node count plus the
// deduplicated, sorted edge list. Rebuilding through New recreates the
// CSR arrays bit-identically (New sorts and dedups, and Edges emits the
// already-sorted unique list), so a round trip is DeepEqual-exact.
type Wire struct {
	N     int    `json:"n"`
	Edges []Edge `json:"edges"`
}

// Wire returns the graph's serialized form.
func (g *Graph) Wire() Wire { return Wire{N: g.n, Edges: g.Edges()} }

// FromWire rebuilds a graph from its serialized form, validating every
// edge endpoint against the node count.
func FromWire(w Wire) (*Graph, error) { return New(w.N, w.Edges) }

// GeneratePreferentialAttachment builds an undirected preferential-
// attachment (Barabási–Albert) network over n nodes with m edges added
// per arriving node, materialized as a symmetric directed graph — the
// shape of real friendship networks like Brightkite's and FourSquare's,
// whose degree distributions are heavy-tailed. The first m+1 nodes form a
// clique seed.
func GeneratePreferentialAttachment(n, m int, rng *randx.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	if n < m+2 {
		n = m + 2
	}
	// repeated-node list: each endpoint append makes future attachment
	// proportional to degree.
	repeated := make([]int32, 0, 2*n*m)
	var edges []Edge
	addUndirected := func(u, v int32) {
		edges = append(edges, Edge{From: u, To: v}, Edge{From: v, To: u})
		repeated = append(repeated, u, v)
	}
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			addUndirected(int32(u), int32(v))
		}
	}
	targets := make(map[int32]bool, m)
	ordered := make([]int32, 0, m)
	for u := m + 1; u < n; u++ {
		for k := range targets {
			delete(targets, k)
		}
		ordered = ordered[:0]
		// Freeze the sampling pool before this node's edges are added so
		// the node never attaches to itself via its own fresh endpoints.
		pool := len(repeated)
		for len(targets) < m {
			t := repeated[rng.Intn(pool)]
			if t != int32(u) && !targets[t] {
				targets[t] = true
				ordered = append(ordered, t)
			}
		}
		for _, t := range ordered {
			addUndirected(int32(u), t)
		}
	}
	return MustNew(n, edges)
}
