package influence

import (
	"fmt"
	"math"
	"testing"

	"dita/internal/assign"
	"dita/internal/model"
	"dita/internal/paralleltest"
)

// instantSequence builds a multi-instant scenario over the testWorld
// instance: instant 0 is the full pool, instant 1 drops some tasks and
// workers (expiry/assignment) while new ones arrive with fresh stable
// ids, and instant 2 churns again. Task IDs never repeat and stay stable
// for a task's lifetime, mirroring the streaming simulator.
func instantSequence(inst *model.Instance) []*model.Instance {
	i0 := &model.Instance{Now: inst.Now, Workers: inst.Workers, Tasks: inst.Tasks}

	// Instant 1: tasks 0 and 3 leave, two new tasks (stable ids 100, 101)
	// arrive; workers 1 and 4 leave, one returns as a new platform
	// arrival of a user not seen at instant 0.
	i1 := &model.Instance{Now: inst.Now + 1}
	for j, t := range inst.Tasks {
		if j == 0 || j == 3 {
			continue
		}
		i1.Tasks = append(i1.Tasks, t)
	}
	newTask := inst.Tasks[0]
	newTask.ID = 100
	newTask.Loc.X += 3
	i1.Tasks = append(i1.Tasks, newTask)
	newTask2 := inst.Tasks[3]
	newTask2.ID = 101
	newTask2.Categories = []model.CategoryID{2, 7}
	i1.Tasks = append(i1.Tasks, newTask2)
	for i, w := range inst.Workers {
		if i == 1 || i == 4 {
			continue
		}
		i1.Workers = append(i1.Workers, w)
	}
	i1.Workers = append(i1.Workers, model.Worker{
		ID: 50, User: 29, Loc: inst.Workers[0].Loc, Radius: 25,
	})

	// Instant 2: everything from instant 1 except the two newest tasks'
	// predecessors; one more arrival.
	i2 := &model.Instance{Now: inst.Now + 2}
	i2.Tasks = append(i2.Tasks, i1.Tasks[1:]...)
	i2.Workers = append(i2.Workers, i1.Workers[:len(i1.Workers)-2]...)
	return []*model.Instance{i0, i1, i2}
}

// somePairs declares a deterministic two-thirds subset of inst's
// worker-task pairs, varied by salt, so rows are filled only partly and
// a task carried to the next instant meets newly declared workers there.
func somePairs(inst *model.Instance, salt int) []assign.Pair {
	var out []assign.Pair
	for w := range inst.Workers {
		for t := range inst.Tasks {
			if (w*7+t*3+salt)%3 != 0 {
				out = append(out, assign.Pair{W: int32(w), T: int32(t)})
			}
		}
	}
	return out
}

// sameAnswers fails t unless got answers every declared pair — and
// every worker's propagation sum — bit for bit as want does.
func sameAnswers(t *testing.T, got, want *Evaluator, pairs []assign.Pair, what string) {
	t.Helper()
	if got.NumWorkers() != want.NumWorkers() || got.NumTasks() != want.NumTasks() || got.Components() != want.Components() {
		t.Fatalf("%s: shape %d×%d %v, want %d×%d %v", what,
			got.NumWorkers(), got.NumTasks(), got.Components(), want.NumWorkers(), want.NumTasks(), want.Components())
	}
	for w := 0; w < want.NumWorkers(); w++ {
		if g, x := got.PropagationSum(w), want.PropagationSum(w); math.Float64bits(g) != math.Float64bits(x) {
			t.Fatalf("%s: PropagationSum(%d) = %v, want %v", what, w, g, x)
		}
	}
	for _, p := range pairs {
		w, tk := int(p.W), int(p.T)
		if g, x := got.Influence(w, tk), want.Influence(w, tk); math.Float64bits(g) != math.Float64bits(x) {
			t.Fatalf("%s: Influence(%d, %d) = %v, want %v", what, w, tk, g, x)
		}
	}
}

// TestSessionMatchesColdPrepare is the correctness gate of the session
// layer: at every instant of a carry-over sequence, for every component
// mask, the warm session's evaluator must answer every declared pair bit
// for bit as a cold one-shot Prepare of the same instance does. (A warm
// row may legitimately hold more filled entries than the cold one, so
// the evaluators are compared by their answers, not their layout.)
func TestSessionMatchesColdPrepare(t *testing.T) {
	eng, inst := testWorld(t)
	const seed = 7
	for _, mask := range []Components{All, WP, AP, AW, Propagation, Willingness, Affinity, 0} {
		sess := eng.NewSession(mask, seed, 2)
		for k, in := range instantSequence(inst) {
			pairs := somePairs(in, k)
			warm := sess.Evaluate(in, pairs)
			cold := eng.Prepare(in, pairs, mask, seed)
			sameAnswers(t, warm, cold, pairs, fmt.Sprintf("mask %v instant %d", mask, k))
		}
	}
}

// TestSessionReusesCarriedOverState asserts the cache actually hits:
// a task present at two consecutive instants must share the identical
// willingness-row and theta backing arrays, not equal recomputations.
func TestSessionReusesCarriedOverState(t *testing.T) {
	eng, inst := testWorld(t)
	sess := eng.NewSession(All, 7, 1)
	seq := instantSequence(inst)
	ev0 := sess.Evaluate(seq[0], crossPairs(seq[0]))
	ev1 := sess.Evaluate(seq[1], crossPairs(seq[1]))
	// Task with stable id 1 is position 1 at instant 0 and position 0 at
	// instant 1.
	if &ev0.wilRows[1][0] != &ev1.wilRows[0][0] {
		t.Error("carried-over task's willingness row was recomputed, not reused")
	}
	if &ev0.thetaT[1][0] != &ev1.thetaT[0][0] {
		t.Error("carried-over task's topic distribution was recomputed, not reused")
	}
	// Worker at instant-0 position 0 (user 0) is still position 0 at
	// instant 1.
	if len(ev0.roots[0]) > 0 && &ev0.roots[0][0] != &ev1.roots[0][0] {
		t.Error("carried-over worker's RRR roots were recomputed, not reused")
	}
}

// TestSessionEvictsDepartedEntities asserts carry-over memory is bounded
// by the live pool: entities absent from an instant lose their cache
// entries.
func TestSessionEvictsDepartedEntities(t *testing.T) {
	eng, inst := testWorld(t)
	sess := eng.NewSession(All, 7, 1)
	seq := instantSequence(inst)
	for k, in := range seq {
		sess.Evaluate(in, crossPairs(in))
		distinctUsers := map[model.WorkerID]bool{}
		for _, w := range in.Workers {
			distinctUsers[w.User] = true
		}
		if got, want := sess.CachedTasks(), len(in.Tasks); got != want {
			t.Errorf("instant %d: %d cached tasks, want %d", k, got, want)
		}
		if got, want := sess.CachedWorkers(), len(distinctUsers); got != want {
			t.Errorf("instant %d: %d cached workers, want %d", k, got, want)
		}
	}
	// A shrunken instant evicts everything else.
	small := &model.Instance{
		Now:     200,
		Workers: seq[2].Workers[:1],
		Tasks:   seq[2].Tasks[:1],
	}
	sess.Evaluate(small, crossPairs(small))
	if sess.CachedTasks() != 1 || sess.CachedWorkers() != 1 {
		t.Errorf("after shrinking to 1×1: %d tasks, %d workers cached",
			sess.CachedTasks(), sess.CachedWorkers())
	}
}

// TestSessionCapacityBoundExact is the unit gate of the bounded session:
// with a capacity far below the live pool, every instant's evaluator
// must still answer every declared pair bit-identically to a cold
// Prepare (evicted-but-live entities are cache misses that recompute
// identity-keyed state), while both caches hold at most the capacity
// after every instant.
func TestSessionCapacityBoundExact(t *testing.T) {
	eng, inst := testWorld(t)
	const capacity = 2
	sess := eng.NewSession(All, 7, 2)
	sess.SetCapacity(capacity)
	for k, in := range instantSequence(inst) {
		pairs := somePairs(in, k)
		warm := sess.Evaluate(in, pairs)
		cold := eng.Prepare(in, pairs, All, 7)
		sameAnswers(t, warm, cold, pairs, fmt.Sprintf("capped session, instant %d", k))
		if len(in.Tasks) <= capacity {
			t.Fatalf("instant %d offers %d tasks; the bound is never stressed", k, len(in.Tasks))
		}
		if got := sess.CachedTasks(); got > capacity {
			t.Errorf("instant %d: %d cached tasks, capacity %d", k, got, capacity)
		}
		if got := sess.CachedWorkers(); got > capacity {
			t.Errorf("instant %d: %d cached workers, capacity %d", k, got, capacity)
		}
	}
	// Lifting the bound restores live-pool tracking at the next instant.
	sess.SetCapacity(0)
	final := instantSequence(inst)[2]
	sess.Evaluate(final, somePairs(final, 0))
	if got, want := sess.CachedTasks(), len(final.Tasks); got != want {
		t.Errorf("after lifting the bound: %d cached tasks, want %d", got, want)
	}
}

// TestSessionCapacityEvictsOldestFirst pins the eviction order: FIFO by
// admission sequence, so the survivors of a capacity squeeze are exactly
// the most recently admitted entries — deterministic regardless of map
// iteration order.
func TestSessionCapacityEvictsOldestFirst(t *testing.T) {
	eng, inst := testWorld(t)
	sess := eng.NewSession(All, 7, 1)
	sess.SetCapacity(1)
	sess.Evaluate(inst, crossPairs(inst))
	if sess.CachedTasks() != 1 {
		t.Fatalf("%d cached tasks, want 1", sess.CachedTasks())
	}
	// The survivor is the last-admitted task: admission order is instance
	// order, so the sole retained entry must be the final task's — and it
	// must serve the next instant as a cache hit (same backing arrays).
	last := inst.Tasks[len(inst.Tasks)-1]
	st, ok := sess.tasks[uint64(last.ID)]
	if !ok {
		t.Fatal("last-admitted task was evicted: FIFO order broken")
	}
	probe := &model.Instance{Now: inst.Now + 1, Workers: inst.Workers[:1], Tasks: []model.Task{last}}
	pairs := crossPairs(probe)
	warm := sess.Evaluate(probe, pairs)
	cold := eng.Prepare(probe, pairs, All, 7)
	sameAnswers(t, warm, cold, pairs, "capacity survivor")
	if &warm.thetaT[0][0] != &st.theta[0] {
		t.Fatal("survivor was recomputed, not served from cache")
	}
}

// TestSessionParallelismInvariant registers the session-backed online
// phase with the shared determinism harness: the full multi-instant
// evaluator sequence must be bit-identical at worker counts {1, 2, 8}.
func TestSessionParallelismInvariant(t *testing.T) {
	eng, inst := testWorld(t)
	seq := instantSequence(inst)
	paralleltest.Invariant(t, func(par int) any {
		var evs []*Evaluator
		for _, mask := range []Components{All, AW} {
			sess := eng.NewSession(mask, 7, par)
			for k, in := range seq {
				evs = append(evs, sess.Evaluate(in, somePairs(in, k)))
			}
		}
		return evs
	})
}

// TestSessionRejectsDuplicateTaskIDs: identity hygiene is the session
// layer's one precondition; violating it must fail loudly, not silently
// alias two tasks' cached state.
func TestSessionRejectsDuplicateTaskIDs(t *testing.T) {
	eng, inst := testWorld(t)
	bad := &model.Instance{Now: inst.Now, Workers: inst.Workers}
	bad.Tasks = append(bad.Tasks, inst.Tasks[0], inst.Tasks[1])
	bad.Tasks[1].ID = bad.Tasks[0].ID
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate task IDs accepted")
		}
	}()
	eng.NewSession(All, 7, 1).Evaluate(bad, nil)
}

// TestPrepareSeedKeyedByStableIdentity: the fold-in stream of a task
// depends on its stable ID, not its position, so reordering an instance
// permutes — but never changes — the per-task state.
func TestPrepareSeedKeyedByStableIdentity(t *testing.T) {
	eng, inst := testWorld(t)
	ev := eng.Prepare(inst, crossPairs(inst), All, 7)
	perm := &model.Instance{Now: inst.Now, Workers: inst.Workers}
	perm.Tasks = append(perm.Tasks, inst.Tasks[3:]...)
	perm.Tasks = append(perm.Tasks, inst.Tasks[:3]...)
	evPerm := eng.Prepare(perm, crossPairs(perm), All, 7)
	n := len(inst.Tasks)
	for j := 0; j < n; j++ {
		pj := (j - 3 + n) % n // position of task j in the permuted instance
		for w := range inst.Workers {
			if ev.Influence(w, j) != evPerm.Influence(w, pj) {
				t.Fatalf("task %d: influence changed when the task moved from position %d to %d",
					inst.Tasks[j].ID, j, pj)
			}
		}
	}
}
