package engine

import (
	"fmt"
	"iter"
	"math"
)

// Grid is a replay's fixed instant grid in hours: instant i fires at
// Start + i*Step, from Start through Start+Horizon.
type Grid struct {
	Start   float64
	Step    float64
	Horizon float64
}

// Schedule is the replay's admission order on the grid, as engine
// events: for each instant now, every worker with At <= now
// (WorkerArrive), then every task with Publish <= now (TaskArrive), each
// stream in its given order, then the instant itself (InstantFire at
// now). Arrival events carry the instant time in At. The arrival streams
// must each be ordered by time. A non-positive Step (a grid that never
// advances) or a negative Horizon is an error.
//
// Instants are indexed by integer: instant i happens at Start + i*Step,
// so long horizons do not accumulate floating-point drift, and the
// instant count is fixed up front as ⌊Horizon/Step⌋ (with an epsilon
// absorbing binary rounding): a Horizon that is an exact decimal
// multiple of Step — 2.4 over steps of 0.1, say — includes its final
// instant even though the accumulated product overshoots the horizon by
// an ulp.
//
// Engine.Replay applies this sequence in-process and dita-sim -serve
// posts it to a live dita-serve; sharing it is what makes the platform
// ids each side mints, and therefore their assignment CSVs, line up.
func (g Grid) Schedule(workers []WorkerArrival, tasks []TaskArrival) (iter.Seq[Event], error) {
	if g.Step <= 0 {
		return nil, fmt.Errorf("engine: non-positive grid step %v", g.Step)
	}
	if g.Horizon < 0 {
		return nil, fmt.Errorf("engine: negative grid horizon %v", g.Horizon)
	}
	return func(yield func(Event) bool) {
		wi, ti := 0, 0
		count := int(math.Floor(g.Horizon/g.Step + 1e-9))
		for i := 0; i <= count; i++ {
			now := g.Start + float64(i)*g.Step
			for ; wi < len(workers) && workers[wi].At <= now; wi++ {
				if !yield(Event{Kind: WorkerArrive, At: now, Worker: workers[wi]}) {
					return
				}
			}
			for ; ti < len(tasks) && tasks[ti].Publish <= now; ti++ {
				if !yield(Event{Kind: TaskArrive, At: now, Task: tasks[ti]}) {
					return
				}
			}
			if !yield(Event{Kind: InstantFire, At: now}) {
				return
			}
		}
	}, nil
}

// Replay applies every event of sched in order and returns the results
// of its InstantFire events — the batch form of what dita-serve does
// live. Instants fire only where sched places them: the trigger's
// FireNow is not acted on. The first event Apply rejects stops the
// replay with its error.
func (e *Engine) Replay(sched iter.Seq[Event]) ([]InstantResult, error) {
	var out []InstantResult
	for ev := range sched {
		ap, err := e.Apply(ev)
		if err != nil {
			return nil, err
		}
		if ap.Instant != nil {
			out = append(out, *ap.Instant)
		}
	}
	return out, nil
}
