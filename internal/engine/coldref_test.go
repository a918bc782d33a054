package engine_test

import (
	"math"
	"slices"
	"testing"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/engine"
	"dita/internal/influence"
	"dita/internal/model"
)

// coldSessionRun is the cold reference of Engine.Replay over
// Grid.Schedule: it replays the same instant grid — admissions with
// arrival-ordered stable ids, the deadline sweep, retirement of matched
// pairs — but carries nothing between instants except the pools. Every
// busy instant opens a fresh session, scans assign.FeasiblePairs,
// prepares, solves through AssignPrepared and retires. The instants come
// back normalized; everything else must equal the warm run's bit for
// bit.
func coldSessionRun(fw *core.Framework, cfg engine.Config, g engine.Grid, workers []engine.WorkerArrival, tasks []engine.TaskArrival) outcome {
	comps := cfg.Components
	if comps == 0 {
		comps = influence.All
	}
	var (
		pool  []model.Worker
		open  []model.Task
		nextW model.WorkerID
		nextT model.TaskID
		wi    int
		ti    int
	)
	var res outcome
	count := int(math.Floor(g.Horizon/g.Step + 1e-9))
	for i := 0; i <= count; i++ {
		now := g.Start + float64(i)*g.Step
		for ; wi < len(workers) && workers[wi].At <= now; wi++ {
			a := workers[wi]
			pool = append(pool, model.Worker{ID: nextW, User: a.User, Loc: a.Loc, Radius: a.Radius})
			nextW++
		}
		for ; ti < len(tasks) && tasks[ti].Publish <= now; ti++ {
			a := tasks[ti]
			open = append(open, model.Task{
				ID: nextT, Loc: a.Loc, Publish: a.Publish,
				Valid: a.Valid, Categories: a.Categories, Venue: a.Venue,
			})
			nextT++
		}
		ir := engine.InstantResult{At: now}
		open = slices.DeleteFunc(open, func(t model.Task) bool {
			if t.Expiry() < now {
				ir.Expired++
				return true
			}
			return false
		})
		res.Totals.Expired += ir.Expired
		ir.OnlineWorkers, ir.OpenTasks = len(pool), len(open)
		if len(pool) > 0 && len(open) > 0 {
			inst := &model.Instance{Now: now, Workers: slices.Clone(pool), Tasks: slices.Clone(open)}
			pairs := assign.FeasiblePairs(inst, fw.Speed())
			ev := fw.PrepareSession(comps, cfg.Seed, cfg.Parallelism).Prepare(inst, pairs)
			set, m, stats := fw.AssignPrepared(inst, ev, cfg.Algorithm, pairs, cfg.Parallelism)
			ir.Metrics, ir.Tiles, ir.Pairs = m, stats, set.Pairs
			usedW := make([]bool, len(pool))
			usedT := make([]bool, len(open))
			for k, pr := range set.Pairs {
				w, t := inst.Workers[pr.Worker], inst.Tasks[pr.Task]
				ir.Assigned = append(ir.Assigned, engine.AssignedPair{
					Task: t.ID, Worker: w.ID, User: w.User,
					Influence: set.Influence[k], TravelKm: set.TravelKm[k],
				})
				usedW[pr.Worker], usedT[pr.Task] = true, true
			}
			pool = keep(pool, usedW)
			open = keep(open, usedT)
			res.Totals.Assigned += set.Len()
		}
		res.Instants = append(res.Instants, ir)
	}
	res.Instants = normalize(res.Instants)
	res.Totals.Instants = len(res.Instants)
	res.Totals.Events = int(nextW) + int(nextT)
	return res
}

// keep returns the entries of s whose used mark is false, in order.
func keep[T any](s []T, used []bool) []T {
	out := s[:0]
	for i, v := range s {
		if !used[i] {
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkEngineReplay times one streaming replay end to end with the
// warm session (Engine.Replay) and with a cold session per instant
// (coldSessionRun); the two make identical assignments, so the gap is
// exactly the recomputation the session cache skips for carried-over
// tasks and workers.
func BenchmarkEngineReplay(b *testing.B) {
	fw, data := testFramework(b)
	ws, ts := streams(data, 150, 7)
	cfg := engine.Config{Algorithm: assign.IA, Seed: 9, Parallelism: 1}
	g := engine.Grid{Start: 120, Step: 1, Horizon: 16}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runGrid(b, fw, cfg, g, ws, ts)
		}
	})
	b.Run("cold-session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldSessionRun(fw, cfg, g, ws, ts)
		}
	})
}
