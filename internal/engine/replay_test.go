package engine_test

import (
	"reflect"
	"testing"
	"time"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/paralleltest"
	"dita/internal/randx"
)

// outcome is what a replay produces, as the tests compare it: the
// instant records (wall-clock fields stripped) and the engine totals.
type outcome struct {
	Instants []engine.InstantResult
	Totals   engine.Totals
}

// settle is the outcome of a replay that produced instants on e.
func settle(instants []engine.InstantResult, e *engine.Engine) outcome {
	return outcome{Instants: normalize(instants), Totals: e.Totals()}
}

// runGrid replays the arrival streams on grid g through a fresh engine
// with a real monotonic latency clock, and returns the raw instant
// records and the engine.
func runGrid(t testing.TB, fw *core.Framework, cfg engine.Config, g engine.Grid, ws []engine.WorkerArrival, ts []engine.TaskArrival) ([]engine.InstantResult, *engine.Engine) {
	t.Helper()
	start := time.Now()
	cfg.Clock = func() time.Duration { return time.Since(start) }
	e, err := engine.New(fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := g.Schedule(ws, ts)
	if err != nil {
		t.Fatal(err)
	}
	instants, err := e.Replay(sched)
	if err != nil {
		t.Fatal(err)
	}
	return instants, e
}

func TestEngineGridScheduleValidation(t *testing.T) {
	if _, err := (engine.Grid{Step: 0}).Schedule(nil, nil); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := (engine.Grid{Step: 1, Horizon: -1}).Schedule(nil, nil); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestEngineReplayAssignsAndRetires(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 1)
	instants, e := runGrid(t, fw, engine.Config{Algorithm: assign.IA, Seed: 1},
		engine.Grid{Start: 120, Step: 2, Horizon: 14}, ws, ts)
	tot := e.Totals()
	if tot.Assigned == 0 {
		t.Fatal("streaming run assigned nothing")
	}
	if tot.Assigned > 40 {
		t.Fatalf("assigned %d > 40 offered tasks", tot.Assigned)
	}
	if len(instants) == 0 {
		t.Fatal("no instants recorded")
	}
	// Completion accounting is consistent.
	if r := tot.CompletionRate(); r < 0 || r > 1 {
		t.Errorf("completion rate %v", r)
	}
	// Workers go offline once assigned: online count at the end is the
	// arrivals minus total assigned (no worker re-enters).
	if got := e.Online(); got != len(ws)-tot.Assigned {
		t.Errorf("online %d, want %d", got, len(ws)-tot.Assigned)
	}
}

func TestEngineReplayTasksExpireUnserved(t *testing.T) {
	fw, _ := testFramework(t)
	// One task with no feasible worker ever: it must expire, not linger.
	tasks := []engine.TaskArrival{{Loc: geo.Point{X: 1, Y: 1}, Publish: 0, Valid: 2, Venue: 1}}
	_, e := runGrid(t, fw, engine.Config{Algorithm: assign.IA, Seed: 1},
		engine.Grid{Start: 0, Step: 1, Horizon: 6}, nil, tasks)
	tot := e.Totals()
	if tot.Expired != 1 {
		t.Errorf("expired %d, want 1", tot.Expired)
	}
	if tot.Assigned != 0 || tot.CompletionRate() != 0 {
		t.Errorf("assigned %d rate %v on an unservable stream", tot.Assigned, tot.CompletionRate())
	}
	if e.Open() != 0 {
		t.Errorf("expired task still open")
	}
}

func TestEngineReplayLaterArrivalsServedByLaterInstants(t *testing.T) {
	fw, data := testFramework(t)
	// A worker arriving at hour 126 cannot serve a task expiring at 124,
	// but can serve one expiring at 130.
	u := model.WorkerID(3)
	ws := []engine.WorkerArrival{{User: u, Loc: data.Homes[u], Radius: 1000, At: 126}}
	ts := []engine.TaskArrival{
		{Loc: data.Homes[u], Publish: 120, Valid: 4, Venue: 1},  // expires 124
		{Loc: data.Homes[u], Publish: 120, Valid: 10, Venue: 2}, // expires 130
	}
	_, e := runGrid(t, fw, engine.Config{Algorithm: assign.MTA, Seed: 1},
		engine.Grid{Start: 120, Step: 1, Horizon: 12}, ws, ts)
	tot := e.Totals()
	if tot.Assigned != 1 {
		t.Fatalf("assigned %d, want exactly 1", tot.Assigned)
	}
	if tot.Expired != 1 {
		t.Fatalf("expired %d, want 1", tot.Expired)
	}
	if r := tot.CompletionRate(); r != 0.5 {
		t.Errorf("completion rate %v, want 0.5", r)
	}
}

func TestEngineReplaySmallerStepServesAtLeastAsWell(t *testing.T) {
	// Assigning more frequently can only help completion (tasks get
	// matched before expiring).
	fw, data := testFramework(t)
	ws, ts := streams(data, 30, 9)
	run := func(step float64) int {
		_, e := runGrid(t, fw, engine.Config{Algorithm: assign.IA, Seed: 2},
			engine.Grid{Start: 120, Step: step, Horizon: 14}, ws, ts)
		return e.Totals().Assigned
	}
	fine := run(1)
	coarse := run(7)
	if fine < coarse {
		t.Errorf("finer stepping assigned %d < coarse %d", fine, coarse)
	}
}

// TestEngineSessionMatchesColdPrepareStreaming is the acceptance gate of
// the incremental online phase: over a multi-instant run with arrivals,
// expiries and carry-over, the warm session must produce identical
// assignment sets and bit-identical metrics to rebuilding the influence
// state cold every instant (coldSessionRun) — at Parallelism 1, 2 and
// 8. (Evaluator-state equality is asserted at the influence layer; here
// the equality covers everything downstream of the evaluator.)
func TestEngineSessionMatchesColdPrepareStreaming(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 50, 11)
	g := engine.Grid{Start: 120, Step: 2, Horizon: 16}
	cfg := func(par int) engine.Config {
		return engine.Config{Algorithm: assign.IA, Seed: 5, Parallelism: par}
	}
	want := coldSessionRun(fw, cfg(1), g, ws, ts)
	if want.Totals.Assigned == 0 {
		t.Fatal("equivalence run assigned nothing; streams too sparse to gate anything")
	}
	for _, par := range paralleltest.WorkerCounts {
		if got := settle(runGrid(t, fw, cfg(par), g, ws, ts)); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: session-backed run diverged from cold per-instant sessions", par)
		}
		if got := coldSessionRun(fw, cfg(par), g, ws, ts); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: cold run not parallelism-invariant", par)
		}
	}
}

// TestEngineReplayParallelismInvariant registers the streaming loop with
// the shared determinism harness.
func TestEngineReplayParallelismInvariant(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 3)
	paralleltest.Invariant(t, func(par int) any {
		return settle(runGrid(t, fw, engine.Config{Algorithm: assign.EIA, Seed: 8, Parallelism: par},
			engine.Grid{Start: 120, Step: 2, Horizon: 14}, ws, ts))
	})
}

// TestEngineLongHorizonDeterminismAndEviction runs several simulated
// days with staggered arrivals and short task lifetimes, so the pool
// churns through many carry-over generations: tasks expire unserved,
// workers linger across instants, and the session cache must keep
// evicting. The run must be deterministic run to run, the instant grid
// must not drift, and the cache must end bounded by the final pool.
func TestEngineLongHorizonDeterminismAndEviction(t *testing.T) {
	fw, data := testFramework(t)
	rng := randx.New(13)
	var ws []engine.WorkerArrival
	var ts []engine.TaskArrival
	const days = 4
	for d := 0; d < days; d++ {
		base := 120.0 + float64(d)*24
		for i := 0; i < 25; i++ {
			u := model.WorkerID(rng.Intn(data.Params.NumUsers))
			ws = append(ws, engine.WorkerArrival{
				User: u, Loc: data.Homes[u], Radius: 25, At: base + rng.Float64()*20,
			})
			v := data.Venues[rng.Intn(len(data.Venues))]
			ts = append(ts, engine.TaskArrival{
				Loc: v.Loc, Publish: base + rng.Float64()*20, Valid: 1 + rng.Float64()*4,
				Categories: v.Categories, Venue: v.ID,
			})
		}
	}
	sortArrivals(ws, ts)
	run := func() ([]engine.InstantResult, *engine.Engine) {
		return runGrid(t, fw, engine.Config{Algorithm: assign.IA, Seed: 21, Parallelism: 2},
			engine.Grid{Start: 120, Step: 1.5, Horizon: float64(days)*24 + 6}, ws, ts)
	}
	raw, pa := run()
	a, b := settle(raw, pa), settle(run())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("long-horizon run is not deterministic")
	}
	// Instants with an empty pool side run no assignment, but the session
	// still syncs its caches; that work must land in Prepare.
	emptyInstants, emptySync := 0, time.Duration(0)
	for _, in := range raw {
		if in.Metrics.Algorithm == "" {
			emptyInstants++
			emptySync += in.Prepare
		}
	}
	if emptyInstants == 0 {
		t.Fatal("long-horizon run has no empty-pool instants; the Sync-accounting check needs some")
	}
	if emptySync == 0 {
		t.Error("empty-pool instants recorded zero Prepare: Session.Sync ran untimed")
	}
	if a.Totals.Assigned == 0 || a.Totals.Expired == 0 {
		t.Fatalf("horizon covered no churn: %d assigned, %d expired — the test needs both",
			a.Totals.Assigned, a.Totals.Expired)
	}
	// The instant grid is an exact integer lattice: no float drift.
	for i, in := range a.Instants {
		if want := 120 + float64(i)*1.5; in.At != want {
			t.Fatalf("instant %d at %v, want exactly %v", i, in.At, want)
		}
	}
	// Carry-over eviction: the session cache cannot exceed the engine's
	// final live pool (every assigned or expired entity must be gone).
	sess := pa.Session().Influence()
	if sess.CachedTasks() > pa.Open() {
		t.Errorf("session caches %d tasks but only %d are open", sess.CachedTasks(), pa.Open())
	}
	if sess.CachedWorkers() > pa.Online() {
		t.Errorf("session caches %d workers but only %d are online", sess.CachedWorkers(), pa.Online())
	}
}

// TestEngineGridHorizonExactMultipleKeepsFinalInstant is the regression
// gate for the instant-count rule: now = Start + i*Step accumulates ulp
// error, so a loop condition `now > end` drops the final instant
// whenever Horizon is an exact decimal — but not binary — multiple of
// Step (0.1*24 = 2.4000000000000004 > 2.4). The instant count is fixed
// up front as ⌊Horizon/Step + ε⌋ + 1.
func TestEngineGridHorizonExactMultipleKeepsFinalInstant(t *testing.T) {
	fw, _ := testFramework(t)
	cases := []struct {
		step, horizon float64
		want          int // ⌊horizon/step⌋ + 1 in exact arithmetic
	}{
		{0.1, 2.4, 25}, // drifts: 0.1*24 > 2.4 in float64
		{0.1, 0.3, 4},  // drifts: 0.1*3 > 0.3
		{0.2, 4.2, 22}, // no drift: control
		{0.3, 0.9, 4},  // no drift: control
		{2, 14, 8},     // integral grid: control
	}
	for _, c := range cases {
		instants, _ := runGrid(t, fw, engine.Config{Algorithm: assign.IA, Seed: 1},
			engine.Grid{Start: 0, Step: c.step, Horizon: c.horizon}, nil, nil)
		if got := len(instants); got != c.want {
			t.Errorf("step %v horizon %v: %d instants, want %d", c.step, c.horizon, got, c.want)
		}
	}
}

func TestEngineAllAlgorithmsRunStreaming(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 25, 4)
	for _, alg := range assign.Algorithms {
		_, e := runGrid(t, fw, engine.Config{Algorithm: alg, Seed: 3},
			engine.Grid{Start: 120, Step: 3, Horizon: 12}, ws, ts)
		if e.Totals().Assigned == 0 {
			t.Errorf("%v assigned nothing in streaming mode", alg)
		}
	}
}
