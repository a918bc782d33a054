package influence

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dita/internal/assign"
	"dita/internal/geo"
	"dita/internal/mobility"
	"dita/internal/model"
	"dita/internal/paralleltest"
	"dita/internal/randx"
)

// eagerRow is the willingness row the session computed for every task
// before fills became on demand: Pwil(u, loc) for every one of the nU
// graph users, evaluated with math.Pow over the kernel's (truncated)
// models, and the column sum accumulated in ascending user order. It is
// the reference the on-demand kernel fill is checked against.
func eagerRow(wil *mobility.Kernel, nU int, loc geo.Point) ([]float32, float64) {
	row := make([]float32, nU)
	sum := 0.0
	for u := range nU {
		wm := wil.Worker(u)
		if wm == nil {
			continue
		}
		v := 0.0
		for i, p := range wm.Locs {
			v += wm.Stationary[i] * math.Pow(geo.Dist(p, loc)+1, -wm.Shape)
		}
		row[u] = float32(v)
		sum += v
	}
	return row, sum
}

// eagerEvaluator builds inst's evaluator with every task's complete
// willingness row, so it answers any pair: the reference every declared
// pair of an on-demand evaluator must match bit for bit.
func eagerEvaluator(eng *Engine, inst *model.Instance, comps Components, seed uint64) *Evaluator {
	ev := eng.NewSession(comps, seed, 1).Evaluate(inst, nil)
	if comps&Willingness == 0 {
		return ev
	}
	nU := eng.Prop.Graph().N()
	full := make([]uint64, (nU+63)/64)
	for k := range full {
		full[k] = ^uint64(0)
	}
	for j, task := range inst.Tasks {
		ev.wilRows[j], ev.wilColSum[j] = eagerRow(eng.Wil, nU, task.Loc)
		ev.wilFill[j] = full
	}
	return ev
}

// churnStep is one instant of a churn stream with its declared pairs.
type churnStep struct {
	inst  *model.Instance
	pairs []assign.Pair
}

// churnStream builds n half-hour instants over the users of a newWorld:
// each instant drops the oldest quarter of the previous pool's workers
// and tasks and admits fresh arrivals with new stable ids, so tasks
// carried over from instant k meet workers arriving at k+1. Each instant
// declares its feasible pairs, as the streaming engine does.
func churnStream(nU, workers, tasks, n int, seed uint64) []churnStep {
	rng := randx.New(seed)
	var ws []model.Worker
	var ts []model.Task
	nextW, nextT := 0, 0
	now := 100.0
	steps := make([]churnStep, 0, n)
	for k := 0; k < n; k++ {
		ws = append([]model.Worker(nil), ws[len(ws)/4:]...)
		ts = append([]model.Task(nil), ts[len(ts)/4:]...)
		for len(ws) < workers {
			ws = append(ws, model.Worker{
				ID: model.WorkerID(nextW), User: model.WorkerID(rng.Intn(nU)),
				Loc:    geo.Point{X: rng.Float64() * 45, Y: rng.Float64() * 5},
				Radius: 10 + rng.Float64()*15,
			})
			nextW++
		}
		for len(ts) < tasks {
			task := worldTask(nextT, rng.Intn(2), rng.Float64()*5)
			task.Publish = now
			ts = append(ts, task)
			nextT++
		}
		inst := &model.Instance{Now: now, Workers: ws, Tasks: ts}
		steps = append(steps, churnStep{inst: inst, pairs: assign.FeasiblePairs(inst, 5)})
		now += 0.5
	}
	return steps
}

// carriedTaskMeetsNewWorker reports whether some declared pair of
// instant k+1 joins a task that was already paired at instant k with a
// worker that arrived only at k+1 — the case where a partly filled row
// must be extended.
func carriedTaskMeetsNewWorker(stream []churnStep) bool {
	for k := 1; k < len(stream); k++ {
		prev, cur := stream[k-1], stream[k]
		pairedTasks := map[model.TaskID]bool{}
		for _, p := range prev.pairs {
			pairedTasks[prev.inst.Tasks[p.T].ID] = true
		}
		oldWorkers := map[model.WorkerID]bool{}
		for _, w := range prev.inst.Workers {
			oldWorkers[w.ID] = true
		}
		for _, p := range cur.pairs {
			if pairedTasks[cur.inst.Tasks[p.T].ID] && !oldWorkers[cur.inst.Workers[p.W].ID] {
				return true
			}
		}
	}
	return false
}

// TestIncrementalWillingnessMatchesEager is the equivalence gate of the
// on-demand fill: over a churn stream, at every Parallelism and for every
// mask, each declared pair's influence and each worker's propagation sum
// must equal the eager full-row reference bit for bit.
func TestIncrementalWillingnessMatchesEager(t *testing.T) {
	const nU = 400
	eng := newWorld(t, nU, 1, 7)
	stream := churnStream(nU, 12, 10, 6, 11)
	if !carriedTaskMeetsNewWorker(stream) {
		t.Fatal("stream never pairs a carried-over task with a newly arrived worker; the row-extension path is untested")
	}
	for _, mask := range []Components{All, WP, AP, AW} {
		for _, par := range paralleltest.WorkerCounts {
			sess := eng.NewSession(mask, 7, par)
			for k, st := range stream {
				ev := sess.Evaluate(st.inst, st.pairs)
				ref := eagerEvaluator(eng, st.inst, mask, 7)
				sameAnswers(t, ev, ref, st.pairs, fmt.Sprintf("mask %v parallelism %d instant %d", mask, par, k))
			}
		}
	}
}

// TestIncrementalWillingnessCapacityReadmission: a capacity squeeze
// evicts live tasks, whose next instant re-admits them with an empty row;
// the refilled rows must still answer every declared pair exactly.
func TestIncrementalWillingnessCapacityReadmission(t *testing.T) {
	const nU = 400
	eng := newWorld(t, nU, 1, 7)
	stream := churnStream(nU, 12, 10, 6, 11)
	for _, mask := range []Components{All, AW} {
		sess := eng.NewSession(mask, 7, 2)
		sess.SetCapacity(3)
		seen := map[uint64]bool{}
		readmitted := 0
		for k, st := range stream {
			for _, task := range st.inst.Tasks {
				key := uint64(task.ID)
				if _, cached := sess.tasks[key]; seen[key] && !cached {
					readmitted++
				}
				seen[key] = true
			}
			ev := sess.Evaluate(st.inst, st.pairs)
			sameAnswers(t, ev, eagerEvaluator(eng, st.inst, mask, 7), st.pairs,
				fmt.Sprintf("mask %v capacity 3 instant %d", mask, k))
		}
		if readmitted == 0 {
			t.Fatalf("mask %v: no live task was evicted and re-admitted; the bound is never stressed", mask)
		}
	}
}

// TestIncrementalWillingnessUndeclaredPairPanics: a pair the evaluator
// was not built for must fail loudly wherever it would read a
// willingness entry that was never computed — never return a number —
// including on a task whose row the declared pairs filled in part.
func TestIncrementalWillingnessUndeclaredPairPanics(t *testing.T) {
	eng, inst := testWorld(t)
	declared := []assign.Pair{{W: 0, T: 0}}
	mustPanic := func(ev *Evaluator, w, task int) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "not declared") {
				t.Errorf("mask %v: undeclared pair (%d, %d) gave %q, want the undeclared-pair panic", ev.comps, w, task, msg)
			}
		}()
		ev.Influence(w, task)
	}
	for _, mask := range []Components{All, WP} {
		ev := eng.Prepare(inst, declared, mask, 7)
		ev.Influence(0, 0)
		// A worker with a root that pair (0, 0) did not fill reads an
		// unfilled entry of task 0's partly filled row.
		partial := -1
		for w, roots := range ev.roots {
			for _, rc := range roots {
				if rc.root != ev.users[w] && !isFilled(ev.wilFill[0], rc.root) {
					partial = w
				}
			}
		}
		if partial < 0 {
			t.Fatalf("mask %v: every worker's roots are filled by pair (0, 0); the partial-row case is untested", mask)
		}
		mustPanic(ev, partial, 0)
		// Task 1 has no declared pair, so none of its entries is filled.
		mustPanic(ev, partial, 1)
	}
	ev := eng.Prepare(inst, declared, AW, 7)
	ev.Influence(0, 0)
	mustPanic(ev, 0, 1)
	// Without willingness there is nothing to fill: any pair answers.
	eng.Prepare(inst, nil, AP, 7).Influence(3, 1)
}

// TestIncrementalWillingnessSyncComputesNothing: an instant without an
// assignment declares no pairs, so it computes no willingness.
func TestIncrementalWillingnessSyncComputesNothing(t *testing.T) {
	eng, inst := testWorld(t)
	sess := eng.NewSession(All, 7, 1)
	sess.Sync(inst)
	if n := sess.WillingnessEntries(); n != 0 {
		t.Fatalf("Sync computed %d willingness entries", n)
	}
	sess.Evaluate(inst, crossPairs(inst))
	if sess.WillingnessEntries() == 0 {
		t.Fatal("Evaluate computed no willingness entries")
	}
}

// entriesPerInstant runs the stream through one session and returns the
// willingness entries each instant computed.
func entriesPerInstant(eng *Engine, stream []churnStep, mask Components, par int) []uint64 {
	sess := eng.NewSession(mask, 7, par)
	out := make([]uint64, len(stream))
	prev := uint64(0)
	for k, st := range stream {
		sess.Evaluate(st.inst, st.pairs)
		out[k] = sess.WillingnessEntries() - prev
		prev = sess.WillingnessEntries()
	}
	return out
}

// TestIncrementalWillingnessEntryCount pins how many willingness entries
// the fill computes on a fixed churn stream, at every Parallelism. The
// count is exact, so a change that silently reverts to full rows — or
// starts computing entries no declared pair reads — fails here.
func TestIncrementalWillingnessEntryCount(t *testing.T) {
	const nU = 400
	eng := newWorld(t, nU, 1, 7)
	stream := churnStream(nU, 12, 10, 6, 11)
	// Full rows would be 4000 entries at the first instant (10 new tasks ×
	// 400 users) and 800 at each later one (2 new tasks): IA-AW still
	// needs every user, the full model only its feasible workers' roots.
	want := map[Components][]uint64{
		All: {982, 361, 440, 313, 325, 381},
		AW:  {4000, 800, 800, 800, 800, 800},
	}
	for _, mask := range []Components{All, AW} {
		for _, par := range paralleltest.WorkerCounts {
			if got := entriesPerInstant(eng, stream, mask, par); !reflect.DeepEqual(got, want[mask]) {
				t.Errorf("mask %v parallelism %d: entries per instant %v, want %v", mask, par, got, want[mask])
			}
		}
	}
}

// BenchmarkSessionEvaluate serves a churn stream through one session per
// iteration. Besides time it reports the willingness entries computed per
// instant, next to the full-row count (every graph user for every new
// task) the eager fill used to compute.
func BenchmarkSessionEvaluate(b *testing.B) {
	const nU = 400
	eng := newWorld(b, nU, 1, 7)
	stream := churnStream(nU, 60, 40, 20, 5)
	tasks := map[model.TaskID]bool{}
	for _, st := range stream {
		for _, task := range st.inst.Tasks {
			tasks[task.ID] = true
		}
	}
	var entries []uint64
	for b.Loop() {
		entries = entriesPerInstant(eng, stream, All, 1)
	}
	total := uint64(0)
	for _, n := range entries {
		total += n
	}
	b.ReportMetric(float64(total)/float64(len(stream)), "wil-entries/instant")
	b.ReportMetric(float64(len(tasks)*nU)/float64(len(stream)), "full-row-entries/instant")
}
