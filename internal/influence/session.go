// Session is the incremental online phase: where Engine.Prepare treats
// every assignment instant as cold — re-folding every task through LDA,
// re-extracting every worker's RRR root list and computing willingness
// from scratch — a Session carries that per-entity state across instants.
// The streaming protocol of the paper (Section VI) keeps unassigned
// workers online and unexpired tasks open between instants, so most of an
// instant's state was already computed at an earlier one; a Session
// computes influence state only for newly arrived tasks and workers and
// evicts entries the moment their task or worker leaves the pool.
//
// Willingness is filled on demand. Each Evaluate declares the instant's
// feasible pairs up front, and under the full model (and IA-WP) the
// influence sum reads Pwil(·, s) only at the RRR roots of the workers
// feasible for s — so a task's willingness row holds just those entries,
// tracked by a per-task fill bitset and extended as new workers become
// feasible for it at later instants. Under IA-AW the sum reads the whole
// column Σ_u Pwil(u, s), so the needed set is every user and a task's
// row is filled completely the first time it is paired. Every entry is
// the same float32(Pwil(u, s)) whichever instant computed it, and a query
// for a pair the evaluator was not built for panics rather than read an
// unfilled entry.
//
// Cache keys are stable identities, never instant-local positions: a task
// is keyed by its Task.ID (which the streaming simulator keeps stable
// across a task's whole lifetime) and a worker by its User id in the
// social graph. Per-task LDA fold-in randomness is likewise keyed by
// stable identity — the stream seed is randx.Mix(sessionSeed, taskID) —
// so a task's topic distribution is the same number at every instant it
// survives, whichever instant first computed it, and a cold rebuild
// (Engine.Prepare) answers every declared pair bit for bit as the session
// does.
//
// Fresh work runs on the shared internal/parallel pool: each pending task
// or worker writes only to its own pre-inserted cache entry and draws only
// from its identity-keyed stream, and willingness fill runs one task per
// work item, so the answers are bit-identical at any Parallelism setting.
package influence

import (
	"fmt"
	"sort"

	"dita/internal/assign"
	"dita/internal/mobility"
	"dita/internal/model"
	"dita/internal/parallel"
	"dita/internal/randx"
)

// taskState is the cached per-task influence state: the task's folded
// topic distribution (Affinity) and its on-demand willingness row
// (Willingness).
type taskState struct {
	gen   uint64
	seq   uint64 // admission order, for capacity eviction
	theta []float64
	// row[u] = float32(Pwil(u, task location)), valid where filled has
	// bit u set; allocated by the first fill that computes an entry.
	row    []float32
	filled []uint64
	// colSum = Σ_u Pwil(u, task location) over the complete row, set by
	// the IA-AW fill.
	colSum float64
}

// userState is the cached per-worker influence state, keyed by the
// worker's social-graph user id: the compacted RRR root list and the
// propagation sum Σ_{wi≠ws} Ppro(ws, wi).
type userState struct {
	gen     uint64
	seq     uint64 // admission order, for capacity eviction
	roots   []rootCount
	propSum float64
}

// Session owns the carry-over influence state of the online phase. Create
// one per streaming run (Engine.NewSession), call Evaluate once per
// assignment instant, and the session computes state only for tasks and
// workers it has not seen, evicting entries that left the pool.
//
// The evaluators a session returns are interchangeable with cold
// Engine.Prepare ones: for the same instance, component mask and seed the
// two are bit-identical (the equivalence tests assert this), because all
// cached state is keyed by stable identity rather than by instant.
//
// A Session is not safe for concurrent use; build one per goroutine (they
// share the immutable Engine).
type Session struct {
	eng   *Engine
	comps Components
	seed  uint64
	par   int

	// gen is the current instant's generation stamp; entries whose stamp
	// is older at the end of Evaluate have left the pool and are evicted.
	gen uint64
	// admitSeq stamps cache insertions in admission order; capacity
	// eviction drops the earliest-admitted entries first.
	admitSeq uint64
	// capacity bounds each cache (tasks and users separately) when
	// positive; see SetCapacity.
	capacity int
	scale    float64
	tasks    map[uint64]*taskState
	users    map[int32]*userState

	// pendT/pendU are reusable scratch lists of cache misses; the
	// parallel fresh-work phase iterates them by index.
	pendT []pendingTask
	pendU []pendingUser

	// Reusable willingness-fill scratch: the declared pairs regrouped by
	// task (pairOff is the CSR offset array over pairW), each task's
	// state, and the per-task count of entries the fill computed.
	pairOff []int32
	pairW   []int32
	fillSt  []*taskState
	fillN   []int
	// scratch[w] is pool worker w's willingness-kernel scratch.
	scratch []*mobility.Scratch
	// wilEntries counts willingness entries computed over the session's
	// life (one Pwil(u, s) evaluation each).
	wilEntries uint64
}

type pendingTask struct {
	key uint64
	j   int // position in the current instance
	st  *taskState
}

type pendingUser struct {
	u  int32
	st *userState
}

// NewSession returns an empty session for the given component mask and
// base seed. parallelism bounds the worker pool used for fresh per-task
// and per-worker state (<= 0 means all cores); the cached state and every
// evaluator are bit-identical at any setting.
func (e *Engine) NewSession(comps Components, seed uint64, parallelism int) *Session {
	s := &Session{
		eng:   e,
		comps: comps,
		seed:  seed,
		par:   parallel.Workers(parallelism),
		tasks: make(map[uint64]*taskState),
		users: make(map[int32]*userState),
	}
	if n := e.Prop.NumSets(); n > 0 {
		s.scale = float64(e.Prop.Graph().N()) / float64(n)
	}
	return s
}

// Components returns the component mask the session prepares for.
func (s *Session) Components() Components { return s.comps }

// CachedTasks returns how many tasks currently have cached state (the
// open-task carry-over after the last Evaluate).
func (s *Session) CachedTasks() int { return len(s.tasks) }

// CachedWorkers returns how many distinct users currently have cached
// state.
func (s *Session) CachedWorkers() int { return len(s.users) }

// WillingnessEntries returns how many willingness entries Pwil(u, s) the
// session has computed since it was created. The count is a pure function
// of the instants and declared pairs it was fed, at any Parallelism.
func (s *Session) WillingnessEntries() uint64 { return s.wilEntries }

// SetCapacity bounds the session's carry-over memory: after each instant
// at most n cached task states and n cached user states are retained,
// evicting the earliest-admitted entries first (FIFO by admission
// sequence — deterministic, since admission order is the sequential
// instance order). n <= 0 removes the bound.
//
// The bound changes memory, never results: an entity that is still
// pooled after its state was evicted is simply a cache miss at its next
// instant, and recomputes bit-identical state because all per-entity
// randomness is keyed by stable identity, not by which instant computed
// it. Adversarial streams — entities that arrive, never match and never
// leave — therefore hold at most n entries per cache instead of growing
// with the live pool. Takes effect at the next Evaluate/Sync.
func (s *Session) SetCapacity(n int) { s.capacity = n }

// Evaluate returns the evaluator for one assignment instant, reusing
// cached state for every task and worker seen at an earlier instant and
// computing fresh state — in deterministic parallel chunks — for the
// rest. State for tasks and workers absent from inst is evicted.
//
// pairs declares the (worker, task) positions of inst the evaluator will
// be asked about — typically the instant's feasible pairs. Willingness is
// computed only where those pairs read it, so querying an undeclared
// pair may panic; the slice is read during the call and not retained.
//
// Task IDs must be unique within the instance and stable across the
// instants of a session: a given Task.ID must always denote the same
// task (location and categories), which is exactly what the streaming
// simulator's platform-level identities provide.
func (s *Session) Evaluate(inst *model.Instance, pairs []assign.Pair) *Evaluator {
	nW, nT := len(inst.Workers), len(inst.Tasks)
	nU := s.eng.Prop.Graph().N()
	s.gen++

	ev := &Evaluator{comps: s.comps, nW: nW, nT: nT, nU: nU}
	ev.users = make([]int32, nW)
	for i, w := range inst.Workers {
		ev.users[i] = int32(w.User)
	}

	s.admitUsers(ev.users)
	s.admitTasks(inst)

	if s.comps&Affinity != 0 {
		ev.thetaW = make([][]float64, nW)
		for i, w := range inst.Workers {
			if int(w.User) < len(s.eng.ThetaUser) && s.eng.ThetaUser[w.User] != nil {
				ev.thetaW[i] = s.eng.ThetaUser[w.User]
			} else {
				ev.thetaW[i] = uniformTopics(s.eng.LDA.Topics())
			}
		}
		ev.thetaT = make([][]float64, nT)
		for j := range inst.Tasks {
			ev.thetaT[j] = s.tasks[uint64(inst.Tasks[j].ID)].theta
		}
	}
	ev.propSum = make([]float64, nW)
	if s.comps&Propagation != 0 {
		ev.scale = s.scale
		ev.roots = make([][]rootCount, nW)
	}
	for i, u := range ev.users {
		st := s.users[u]
		if ev.roots != nil {
			ev.roots[i] = st.roots
		}
		ev.propSum[i] = st.propSum
	}
	if s.comps&Willingness != 0 {
		s.fillWillingness(inst, ev, pairs)
		ev.wilRows = make([][]float32, nT)
		ev.wilFill = make([][]uint64, nT)
		ev.wilColSum = make([]float64, nT)
		for j, st := range s.fillSt[:nT] {
			ev.wilRows[j] = st.row
			ev.wilFill[j] = st.filled
			ev.wilColSum[j] = st.colSum
		}
	}

	s.evict()
	return ev
}

// Sync maintains the carry-over cache for an instant the platform skips
// (no workers online or no tasks open): arrivals are admitted — their
// state computed ahead of the next assignment round — and departures are
// evicted, exactly as Evaluate would, without building an evaluator. No
// pairs are declared, so no willingness is computed.
func (s *Session) Sync(inst *model.Instance) {
	s.gen++
	users := make([]int32, len(inst.Workers))
	for i, w := range inst.Workers {
		users[i] = int32(w.User)
	}
	s.admitUsers(users)
	s.admitTasks(inst)
	s.evict()
}

// admitUsers stamps the instant's users and computes state for the ones
// the session has never seen.
func (s *Session) admitUsers(users []int32) {
	s.pendU = s.pendU[:0]
	for _, u := range users {
		st, ok := s.users[u]
		if !ok {
			s.admitSeq++
			st = &userState{seq: s.admitSeq}
			s.users[u] = st
			s.pendU = append(s.pendU, pendingUser{u: u, st: st})
		}
		st.gen = s.gen
	}
	prop := s.comps&Propagation != 0
	parallel.For(s.par, len(s.pendU), func(_, i int) {
		p := s.pendU[i]
		if prop {
			p.st.roots = compactRoots(s.eng.Prop, p.u)
			p.st.propSum = propagationSum(p.st.roots, p.u, s.scale)
		} else {
			// The AP metric is still reported for propagation-free
			// variants; compute it from the collection without letting it
			// affect if().
			p.st.propSum = s.eng.Prop.PropagationSum(p.u)
		}
	})
}

// admitTasks stamps the instant's tasks and computes state for newly
// arrived ones: the folded topic distribution, and an empty willingness
// fill bitset that fillWillingness extends on demand. Per-task randomness
// is keyed by stable task identity via randx.Mix, so the computed state is
// independent of the task's position in the instance and of which instant
// first computed it.
func (s *Session) admitTasks(inst *model.Instance) {
	if s.comps&(Affinity|Willingness) == 0 {
		return
	}
	s.pendT = s.pendT[:0]
	for j := range inst.Tasks {
		key := uint64(inst.Tasks[j].ID)
		st, ok := s.tasks[key]
		if !ok {
			s.admitSeq++
			st = &taskState{seq: s.admitSeq}
			s.tasks[key] = st
			s.pendT = append(s.pendT, pendingTask{key: key, j: j, st: st})
		} else if st.gen == s.gen {
			// Two tasks of one instance share an ID: the cache would
			// silently serve one task's state for the other. Fail loudly —
			// identity hygiene is the session layer's one precondition.
			panic(fmt.Sprintf("influence: duplicate task ID %d in instance; per-task state is keyed by stable identity", inst.Tasks[j].ID))
		}
		st.gen = s.gen
	}
	words := (s.eng.Prop.Graph().N() + 63) / 64
	parallel.For(s.par, len(s.pendT), func(_, i int) {
		p := s.pendT[i]
		if s.comps&Affinity != 0 {
			cats := inst.Tasks[p.j].Categories
			doc := make([]int32, len(cats))
			for k, c := range cats {
				doc[k] = int32(c)
			}
			p.st.theta = s.eng.LDA.Infer(doc, randx.Mix(s.seed, p.key))
		}
		if s.comps&Willingness != 0 {
			p.st.filled = make([]uint64, words)
		}
	})
}

// fillWillingness computes the willingness entries the declared pairs
// read and are not yet filled, leaving s.fillSt[j] as the state of task j.
// Under a propagation mask, pair (w, t) reads task t's row at every RRR
// root of w's cover except w's own user; without propagation (IA-AW) it
// reads the column sum, so a paired task's row is filled completely. The
// pairs are regrouped by task and the fill runs one task per pool item,
// so each item writes only its own row and bitset; each pool worker
// evaluates the shared kernel through its own scratch.
func (s *Session) fillWillingness(inst *model.Instance, ev *Evaluator, pairs []assign.Pair) {
	for len(s.scratch) < s.par {
		s.scratch = append(s.scratch, s.eng.Wil.NewScratch())
	}
	nT := len(inst.Tasks)
	s.fillSt = s.fillSt[:0]
	for j := range inst.Tasks {
		s.fillSt = append(s.fillSt, s.tasks[uint64(inst.Tasks[j].ID)])
	}
	// Counting sort of the pairs by task: pairOff[t]..pairOff[t+1] spans
	// task t's workers in pairW.
	s.pairOff = zeroed(s.pairOff, nT+1)
	for _, p := range pairs {
		s.pairOff[p.T+1]++
	}
	for t := 0; t < nT; t++ {
		s.pairOff[t+1] += s.pairOff[t]
	}
	if cap(s.pairW) < len(pairs) {
		s.pairW = make([]int32, len(pairs))
	}
	s.pairW = s.pairW[:len(pairs)]
	for _, p := range pairs {
		s.pairW[s.pairOff[p.T]] = p.W
		s.pairOff[p.T]++
	}
	copy(s.pairOff[1:], s.pairOff[:nT])
	s.pairOff[0] = 0

	s.fillN = zeroed(s.fillN, nT)
	full := s.comps&Propagation == 0
	nU := s.eng.Prop.Graph().N()
	wil := s.eng.Wil
	parallel.For(s.par, nT, func(worker, t int) {
		lo, hi := s.pairOff[t], s.pairOff[t+1]
		if lo == hi {
			return
		}
		st, loc, sc := s.fillSt[t], inst.Tasks[t].Loc, s.scratch[worker]
		if full {
			// Under IA-AW only this complete fill allocates a row. The
			// column sum accumulates the float64 entries in ascending user
			// order; a user without a model adds an exact zero.
			if st.row != nil {
				return
			}
			st.row = make([]float32, nU)
			sum := 0.0
			for u := range nU {
				v := wil.Willingness(u, loc, sc)
				st.row[u] = float32(v)
				sum += v
			}
			for k := range st.filled {
				st.filled[k] = ^uint64(0)
			}
			st.colSum = sum
			s.fillN[t] = nU
			return
		}
		n := 0
		for _, w := range s.pairW[lo:hi] {
			self := ev.users[w]
			for _, rc := range ev.roots[w] {
				u := rc.root
				if u == self || isFilled(st.filled, u) {
					continue
				}
				if st.row == nil {
					st.row = make([]float32, nU)
				}
				st.row[u] = float32(wil.Willingness(int(u), loc, sc))
				st.filled[u>>6] |= 1 << (uint(u) & 63)
				n++
			}
		}
		s.fillN[t] = n
	})
	for _, n := range s.fillN {
		s.wilEntries += uint64(n)
	}
}

// zeroed returns buf resized to n zero elements, reusing its backing
// array when it is large enough.
func zeroed[T int | int32](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// evict drops cached state whose task or worker was absent from the
// current instant (assigned, expired or gone offline); carry-over memory
// is therefore bounded by the live pool, not the run's history. When a
// capacity is set it is enforced on the survivors: the earliest-admitted
// live entries are dropped until each cache fits, so memory is bounded
// even when the live pool is not (adversarial never-leaving streams).
func (s *Session) evict() {
	for key, st := range s.tasks {
		if st.gen != s.gen {
			delete(s.tasks, key)
		}
	}
	for u, st := range s.users {
		if st.gen != s.gen {
			delete(s.users, u)
		}
	}
	if s.capacity <= 0 {
		return
	}
	// Collect (admission seq, key), sort by the unique seq, drop the
	// oldest: deterministic regardless of map iteration order.
	type agedTask struct {
		seq uint64
		key uint64
	}
	if over := len(s.tasks) - s.capacity; over > 0 {
		byAge := make([]agedTask, 0, len(s.tasks))
		for key, st := range s.tasks {
			byAge = append(byAge, agedTask{st.seq, key})
		}
		sort.Slice(byAge, func(i, j int) bool { return byAge[i].seq < byAge[j].seq })
		for _, e := range byAge[:over] {
			delete(s.tasks, e.key)
		}
	}
	type agedUser struct {
		seq uint64
		u   int32
	}
	if over := len(s.users) - s.capacity; over > 0 {
		byAge := make([]agedUser, 0, len(s.users))
		for u, st := range s.users {
			byAge = append(byAge, agedUser{st.seq, u})
		}
		sort.Slice(byAge, func(i, j int) bool { return byAge[i].seq < byAge[j].seq })
		for _, e := range byAge[:over] {
			delete(s.users, e.u)
		}
	}
}
