package geo

import (
	"math"
	"sort"
)

// Grid is a uniform grid spatial index over a fixed set of points. It
// supports radius queries ("which points lie within d of q?"), which is
// the only spatial predicate the assignment algorithms need: a task is
// feasible for a worker when it lies inside the worker's reachable circle.
//
// The index is immutable after construction; Build copies nothing but the
// point slice header, so callers must not mutate the backing array.
type Grid struct {
	pts      []Point
	bounds   Rect
	cellSize float64
	nx, ny   int
	// cells[i] lists point indices in cell i, stored contiguously via
	// start offsets (CSR layout) to keep the index allocation-light.
	cellStart []int32
	cellItems []int32
}

// BuildGrid indexes pts with roughly targetPerCell points per cell. A
// non-positive targetPerCell defaults to 8. BuildGrid handles degenerate
// inputs (empty set, all points identical) gracefully.
func BuildGrid(pts []Point, targetPerCell int) *Grid {
	if targetPerCell <= 0 {
		targetPerCell = 8
	}
	g := &Grid{pts: pts}
	if len(pts) == 0 {
		g.nx, g.ny = 1, 1
		g.cellSize = 1
		g.cellStart = []int32{0, 0}
		return g
	}
	g.bounds = BoundOf(pts)
	w, h := g.bounds.Width(), g.bounds.Height()
	if w <= 0 {
		w = 1e-9
	}
	if h <= 0 {
		h = 1e-9
	}
	// Pick a cell count proportional to n/targetPerCell, shaped to the
	// aspect ratio of the bounding box.
	nCells := float64(len(pts)) / float64(targetPerCell)
	if nCells < 1 {
		nCells = 1
	}
	aspect := w / h
	ny := int(math.Max(1, math.Sqrt(nCells/aspect)))
	nx := int(math.Max(1, math.Ceil(nCells/float64(ny))))
	g.nx, g.ny = nx, ny
	g.cellSize = math.Max(w/float64(nx), h/float64(ny))

	counts := make([]int32, nx*ny+1)
	idx := make([]int32, len(pts))
	for i, p := range pts {
		c := g.cellOf(p)
		idx[i] = int32(c)
		counts[c+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	items := make([]int32, len(pts))
	cursor := make([]int32, nx*ny)
	copy(cursor, counts[:nx*ny])
	for i := range pts {
		c := idx[i]
		items[cursor[c]] = int32(i)
		cursor[c]++
	}
	g.cellStart = counts
	g.cellItems = items
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

func (g *Grid) cellOf(p Point) int {
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*g.nx + cx
}

// Within appends to dst the indices of all points p with Dist(p, q) <= d
// and returns the extended slice. Results are sorted ascending so output
// is deterministic regardless of grid shape.
func (g *Grid) Within(q Point, d float64, dst []int) []int {
	if len(g.pts) == 0 || d < 0 {
		return dst
	}
	d2 := d * d
	minCX := int(math.Floor((q.X - d - g.bounds.Min.X) / g.cellSize))
	maxCX := int(math.Floor((q.X + d - g.bounds.Min.X) / g.cellSize))
	minCY := int(math.Floor((q.Y - d - g.bounds.Min.Y) / g.cellSize))
	maxCY := int(math.Floor((q.Y + d - g.bounds.Min.Y) / g.cellSize))
	minCX = clampInt(minCX, 0, g.nx-1)
	maxCX = clampInt(maxCX, 0, g.nx-1)
	minCY = clampInt(minCY, 0, g.ny-1)
	maxCY = clampInt(maxCY, 0, g.ny-1)
	before := len(dst)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			c := cy*g.nx + cx
			for _, i := range g.cellItems[g.cellStart[c]:g.cellStart[c+1]] {
				if Dist2(g.pts[i], q) <= d2 {
					dst = append(dst, int(i))
				}
			}
		}
	}
	sort.Ints(dst[before:])
	return dst
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
