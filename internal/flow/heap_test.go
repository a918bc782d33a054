package flow

import (
	"container/heap"
	"testing"

	"dita/internal/randx"
)

// refHeap is floatHeap driven through container/heap: the reference the
// typed push/pop must match pop for pop.
type refHeap []heapItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestMinCostHeapMatchesContainerHeap: on random push/pop sequences whose
// distances are drawn from a handful of values, so most comparisons are
// ties, the typed heap pops the same (node, dist) sequence as
// container/heap. Dijkstra's tie order decides which of several equal-cost
// augmenting paths MinCostMaxFlow takes, so equal pop order is what keeps
// every assignment unchanged.
func TestMinCostHeapMatchesContainerHeap(t *testing.T) {
	rng := randx.New(9)
	for run := 0; run < 200; run++ {
		distinct := 1 + rng.Intn(6)
		var got floatHeap
		var want refHeap
		node := int32(0)
		for op := 0; op < 400; op++ {
			if len(want) == 0 || rng.Float64() < 0.6 {
				it := heapItem{node: node, dist: float64(rng.Intn(distinct))}
				node++
				got.push(it)
				heap.Push(&want, it)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(heapItem)
			if g != w {
				t.Fatalf("run %d op %d: popped %+v, container/heap popped %+v", run, op, g, w)
			}
		}
		for len(want) > 0 {
			g, w := got.pop(), heap.Pop(&want).(heapItem)
			if g != w {
				t.Fatalf("run %d drain: popped %+v, container/heap popped %+v", run, g, w)
			}
		}
		if len(got.items) != 0 {
			t.Fatalf("run %d: typed heap holds %d items after the reference drained", run, len(got.items))
		}
	}
}
