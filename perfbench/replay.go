package main

import (
	"fmt"
	"math"
	"time"

	"dita/internal/core"
	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
)

// step is one client-visible action of a workload: a worker or task
// arrival, or an explicit assignment instant at time at.
type step struct {
	kind engine.EventKind // WorkerArrive, TaskArrive or InstantFire
	w    engine.WorkerArrival
	t    engine.TaskArrival
	at   float64
}

// gridSteps is the closed-loop admission order of dita-bench
// -serve-load's grid mode and simulate.Platform.Run: at every grid
// instant start+i·stepH, the due workers, then the due tasks, then the
// instant itself.
func gridSteps(ws []engine.WorkerArrival, ts []engine.TaskArrival, start, stepH, horizon float64) []step {
	out := make([]step, 0, len(ws)+len(ts)+int(horizon/stepH)+1)
	wi, ti := 0, 0
	count := int(math.Floor(horizon/stepH + 1e-9))
	for i := 0; i <= count; i++ {
		now := start + float64(i)*stepH
		for ; wi < len(ws) && ws[wi].At <= now; wi++ {
			out = append(out, step{kind: engine.WorkerArrive, w: ws[wi], at: ws[wi].At})
		}
		for ; ti < len(ts) && ts[ti].Publish <= now; ti++ {
			out = append(out, step{kind: engine.TaskArrive, t: ts[ti], at: ts[ti].Publish})
		}
		out = append(out, step{kind: engine.InstantFire, at: now})
	}
	return out
}

// openSteps is the open-loop order: every arrival in trace-time order,
// workers before tasks on ties, then one closing instant at end. The
// server's batch trigger fires the instants in between.
func openSteps(ws []engine.WorkerArrival, ts []engine.TaskArrival, end float64) []step {
	out := make([]step, 0, len(ws)+len(ts)+1)
	wi, ti := 0, 0
	for wi < len(ws) || ti < len(ts) {
		if ti >= len(ts) || (wi < len(ws) && ws[wi].At <= ts[ti].Publish) {
			out = append(out, step{kind: engine.WorkerArrive, w: ws[wi], at: ws[wi].At})
			wi++
		} else {
			out = append(out, step{kind: engine.TaskArrive, t: ts[ti], at: ts[ti].Publish})
			ti++
		}
	}
	return append(out, step{kind: engine.InstantFire, at: end})
}

// engineRun is an in-process replay of a workload's steps: its outputs
// (the streaming assignment CSV and counters the HTTP run must match)
// and the engine-boundary measurements the traced run reports.
type engineRun struct {
	csv    []byte
	totals engine.Totals
	open   int
	wall   time.Duration

	applyN, fireN          int
	applyD, fireD          time.Duration
	prepare, pairs, solve  time.Duration
	online, openSum, pendg int
	feasible, largestComp  int
	cachedTasksMax         int
	cachedWorkersMax       int
	tasksAdmitted, repeats int
	mirrorMismatch         int
}

// replayEngine feeds steps through a fresh engine exactly as dita-serve
// applies the same requests: arrivals in order, an instant at the
// arrival's time whenever the trigger asks for one, and each explicit
// instant at its grid time. The engine's latencies are read on the
// benchmark's clock. rec may be nil; parent is the span the replay
// hangs under.
func replayEngine(fw *core.Framework, steps []step, trig engine.Trigger, clock func() time.Duration, rec *recorder, parent int) (*engineRun, error) {
	eng, err := engine.New(fw, engine.Config{
		Algorithm: algorithm, Seed: sessionSeed, Parallelism: 0,
		Trigger: trig, Clock: clock,
	})
	if err != nil {
		return nil, err
	}
	r := &engineRun{}
	var instants []engine.InstantResult
	m := newTaskMirror()
	fire := func(at float64, req int) {
		r.pendg += eng.Pending()
		t0 := clock()
		ir := eng.Fire(at)
		t1 := clock()
		r.fireN++
		r.fireD += t1 - t0
		r.prepare += ir.Prepare
		r.pairs += ir.PairMaint
		r.solve += ir.Metrics.CPU
		r.online += ir.OnlineWorkers
		r.openSum += ir.OpenTasks
		r.feasible += ir.Metrics.Feasible
		r.largestComp = max(r.largestComp, ir.Tiles.LargestComponent)
		if s := eng.Session(); s != nil {
			r.cachedTasksMax = max(r.cachedTasksMax, s.Influence().CachedTasks())
			r.cachedWorkersMax = max(r.cachedWorkersMax, s.Influence().CachedWorkers())
		}
		if m.fire(at, ir.Assigned) != ir.OpenTasks {
			r.mirrorMismatch++
		}
		if id := rec.add(parent, "engine.fire", req, t0, t1); id >= 0 {
			rec.phases(id, req, instantPhases, []time.Duration{ir.Prepare, ir.PairMaint, ir.Metrics.CPU})
		}
		instants = append(instants, ir)
	}
	start := clock()
	for i, st := range steps {
		if st.kind == engine.InstantFire {
			fire(st.at, i)
			continue
		}
		ev := engine.Event{Kind: st.kind, At: st.at, Worker: st.w, Task: st.t}
		t0 := clock()
		ap, err := eng.Apply(ev)
		t1 := clock()
		if err != nil {
			return nil, fmt.Errorf("in-process replay step %d: %w", i, err)
		}
		r.applyN++
		r.applyD += t1 - t0
		rec.add(parent, "engine.apply", i, t0, t1)
		if st.kind == engine.TaskArrive {
			m.arrive(ap.TaskID, st.t)
		}
		if ap.FireNow {
			fire(st.at, i)
		}
	}
	r.wall = clock() - start
	r.csv = engine.AssignCSV(instants)
	r.totals = eng.Totals()
	r.open = eng.Open()
	r.tasksAdmitted, r.repeats = m.admitted, m.repeats
	return r, nil
}

// instantPhases names the phases an instant reports for itself, in the
// order the engine runs them.
var instantPhases = []string{"influence.prepare", "assign.pair_maint", "assign.solve"}

// taskMirror tracks the open-task pool from outside the engine — tasks
// enter on arrival and leave when assigned or past their deadline at an
// instant's expiry sweep — to count the tasks the influence session had
// to admit and how many of them spawned at a location an earlier
// admitted task already had (the share a location-keyed cache could
// reuse).
type taskMirror struct {
	open      map[model.TaskID]model.Task
	admitted  int
	repeats   int
	seenTask  map[model.TaskID]bool
	seenPlace map[geo.Point]bool
}

func newTaskMirror() *taskMirror {
	return &taskMirror{open: map[model.TaskID]model.Task{}, seenTask: map[model.TaskID]bool{}, seenPlace: map[geo.Point]bool{}}
}

func (m *taskMirror) arrive(id model.TaskID, a engine.TaskArrival) {
	m.open[id] = model.Task{ID: id, Loc: a.Loc, Publish: a.Publish, Valid: a.Valid}
}

// fire applies an instant at time now and returns the size of the
// snapshot it saw (open tasks after the expiry sweep, before
// retirement). Admission counts do not depend on map order: the number
// of repeats is the admitted count minus the distinct locations.
func (m *taskMirror) fire(now float64, assigned []engine.AssignedPair) int {
	for id, t := range m.open {
		if t.Expiry() < now {
			delete(m.open, id)
		}
	}
	for id, t := range m.open {
		if m.seenTask[id] {
			continue
		}
		m.seenTask[id] = true
		m.admitted++
		if m.seenPlace[t.Loc] {
			m.repeats++
		}
		m.seenPlace[t.Loc] = true
	}
	n := len(m.open)
	for _, p := range assigned {
		delete(m.open, p.Task)
	}
	return n
}
