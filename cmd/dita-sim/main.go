// Command dita-sim runs one task-assignment instance end to end: it
// loads (or generates) a dataset, trains the DITA framework, snapshots
// one day, runs the chosen algorithm and prints the assignment and its
// metrics. It is the manual-inspection tool of the repository.
//
// With -stream it instead replays a deterministic arrival trace
// (internal/trace) on a fixed instant grid (engine.Grid.Schedule: due
// workers, then due tasks, then the instant) through the streaming
// engine (Engine.Replay) and writes the streaming assignment CSV. With
// -stream -serve <base URL> it posts the same schedule to a running
// dita-serve region instead (the URL names the region, e.g.
// http://127.0.0.1:8099/v1/default) and skips training: the server holds
// the framework, the algorithm settings and the drained CSV. The CI
// serve smoke diffs the two CSVs byte for byte.
//
// -train-out seals the trained framework into a fwio artifact;
// -framework loads one instead of training (the source fingerprint must
// match this run's dataset and cutoff).
//
// Usage:
//
//	dita-sim -preset bk -day 25 -tasks 500 -workers 400 -alg IA
//	dita-sim -data ./data/bk -day 25 -alg EIA -mask IA-AW -v
//	dita-sim -preset bk -alg MIX -parallel 4 -assign-csv /tmp/mix.csv
//	dita-sim -stream -train-out /tmp/fw.json -assign-csv /tmp/stream.csv
//	dita-sim -stream -serve http://127.0.0.1:8099/v1/default
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"dita/internal/assign"
	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/fwio"
	"dita/internal/influence"
	"dita/internal/model"
	"dita/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		dataDir = flag.String("data", "", "load a dataset directory written by dita-datagen (overrides -preset)")
		preset  = flag.String("preset", "bk", "generate a dataset preset: bk or fs")
		day     = flag.Int("day", 25, "evaluation day (training uses days before it)")
		tasks   = flag.Int("tasks", 500, "|S| tasks in the instance")
		workers = flag.Int("workers", 400, "|W| workers in the instance")
		valid   = flag.Float64("valid", 5, "task valid time ϕ in hours")
		radius  = flag.Float64("radius", 25, "worker reachable radius r in km")
		algName = flag.String("alg", "IA", "algorithm: MTA, IA, EIA, DIA, MI or MIX (exact max-influence ablation)")
		mask    = flag.String("mask", "IA", "influence components: IA (all), IA-WP, IA-AP or IA-AW")
		seed    = flag.Uint64("seed", 1, "instance sampling seed")
		par     = flag.Int("parallel", 0, "worker pool bound for the online phase and the component-parallel solve (0 = all cores)")
		csvPath = flag.String("assign-csv", "", "write the assignment as CSV to this path (deterministic; for diffing runs)")
		verbose = flag.Bool("v", false, "print every assigned pair")

		fwPath   = flag.String("framework", "", "load a sealed framework artifact instead of training (source must match this run)")
		trainOut = flag.String("train-out", "", "seal the trained framework into this fwio artifact")

		stream     = flag.Bool("stream", false, "replay an arrival trace through the streaming engine instead of one snapshot instance")
		arrivals   = flag.Int("arrivals", 400, "stream: workers and tasks in the trace (one of each per index)")
		traceSeed  = flag.Uint64("trace-seed", 1, "stream: trace sampling seed")
		spread     = flag.Float64("spread", 12, "stream: arrival window length in hours, starting at the evaluation day")
		validSpan  = flag.Float64("valid-span", 2, "stream: task validity is uniform in [-valid, -valid + -valid-span)")
		step       = flag.Float64("step", 0.5, "stream: hours between assignment instants")
		horizon    = flag.Float64("horizon", 24, "stream: simulated hours after the evaluation day")
		sessionCap = flag.Int("session-cap", 0, "stream: bound the influence cache to this many entries, FIFO eviction (0 = unbounded)")
		serveURL   = flag.String("serve", "", "stream: post the trace to a running dita-serve region at this base URL (e.g. http://127.0.0.1:8099/v1/default) instead of replaying it in-process")
	)
	flag.Parse()

	if *serveURL != "" {
		if !*stream {
			log.Fatal("-serve posts the -stream trace; add -stream")
		}
		if *trainOut != "" || *fwPath != "" || *csvPath != "" {
			log.Fatal("-serve replays against a running dita-serve, which holds the framework and drains the CSV; it cannot be combined with -train-out, -framework or -assign-csv")
		}
	}

	alg, err := assign.ParseAlgorithm(*algName)
	if err != nil {
		log.Fatal(err)
	}
	comps, err := influence.ParseComponents(*mask)
	if err != nil {
		log.Fatal(err)
	}

	var data *dataset.Data
	if *dataDir != "" {
		data, err = dataset.Load(*dataDir)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
	} else {
		p, err := dataset.Preset(*preset)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now() //dita:wallclock
		data, err = dataset.Generate(p)
		if err != nil {
			log.Fatalf("generate: %v", err)
		}
		fmt.Printf("dataset %s generated in %.1fs (%d check-ins)\n",
			p.Name, time.Since(start).Seconds(), data.NumCheckIns()) //dita:wallclock
	}

	cutoff := float64(*day) * 24
	sp := streamParams{
		trace: trace.Params{
			Arrivals: *arrivals, Seed: *traceSeed, Start: cutoff, Spread: *spread,
			RadiusKm: *radius, ValidMin: *valid, ValidSpan: *validSpan,
		},
		engine: engine.Config{
			Algorithm: alg, Components: comps, Seed: *seed, Parallelism: *par,
			SessionCapacity: *sessionCap,
		},
		grid:    engine.Grid{Start: cutoff, Step: *step, Horizon: *horizon},
		csvPath: *csvPath,
	}
	if *serveURL != "" {
		if err := runServe(*serveURL, data, sp); err != nil {
			log.Fatalf("serve: %v", err)
		}
		return
	}

	source := data.Params.TrainingSource(cutoff)
	var fw *core.Framework
	if *fwPath != "" {
		loaded, info, err := fwio.Load(*fwPath)
		if err != nil {
			log.Fatalf("framework: %v", err)
		}
		if info.Source != source {
			log.Fatalf("%s: artifact trained on %q, this run needs %q", *fwPath, info.Source, source)
		}
		fmt.Printf("loaded framework from %s (sha256 %.12s…)\n", *fwPath, info.Checksum)
		fw = loaded
	} else {
		start := time.Now() //dita:wallclock
		docs, vocab := data.Documents(cutoff)
		fw, err = core.Train(core.TrainingData{
			Graph:     data.Graph,
			Histories: data.HistoriesBefore(cutoff),
			Documents: docs,
			Vocab:     vocab,
			Records:   data.CheckInsBefore(cutoff),
		}, core.Config{TopWillingnessLocations: 8})
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		fmt.Printf("framework trained in %.1fs\n", time.Since(start).Seconds()) //dita:wallclock
	}
	if *trainOut != "" {
		sum, err := fwio.Write(*trainOut, fw, source)
		if err != nil {
			log.Fatalf("train-out: %v", err)
		}
		fmt.Printf("framework sealed to %s (sha256 %.12s…)\n", *trainOut, sum)
	}

	if *stream {
		runStream(fw, data, sp)
		return
	}

	inst, err := data.Snapshot(dataset.SnapshotParams{
		Day: *day, NumTasks: *tasks, NumWorkers: *workers,
		ValidHours: *valid, RadiusKm: *radius, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}

	feas := assign.FeasiblePairs(inst, fw.Speed())
	start := time.Now() //dita:wallclock
	ev := fw.PrepareSession(comps, *seed, *par).Prepare(inst, feas)
	fmt.Printf("influence model (%s) prepared in %.1fs\n", comps, time.Since(start).Seconds()) //dita:wallclock
	set, m, ts := fw.AssignPrepared(inst, ev, alg, feas, *par)
	if err := set.Validate(len(inst.Tasks), len(inst.Workers)); err != nil {
		log.Fatalf("invalid assignment: %v", err)
	}

	fmt.Printf("\n%s on day %d (|S|=%d, |W|=%d, ϕ=%gh, r=%gkm):\n",
		alg, *day, *tasks, *workers, *valid, *radius)
	fmt.Printf("  assigned tasks       %d\n", m.Assigned)
	fmt.Printf("  feasible pairs       %d\n", m.Feasible)
	fmt.Printf("  graph components     %d (largest %d pairs)\n", ts.Components, ts.LargestComponent)
	fmt.Printf("  average influence    %.4f\n", m.AI)
	fmt.Printf("  average propagation  %.4f\n", m.AP)
	fmt.Printf("  average travel       %.2f km\n", m.TravelKm)
	fmt.Printf("  assignment CPU       %s\n", m.CPU.Round(time.Millisecond))

	if *csvPath != "" {
		if err := writeAssignCSV(*csvPath, inst, set); err != nil {
			log.Fatalf("assign-csv: %v", err)
		}
		fmt.Printf("  assignment CSV       %s (%d rows)\n", *csvPath, set.Len())
	}

	if *verbose {
		fmt.Println("\nassignments:")
		for i, pr := range set.Pairs {
			fmt.Printf("  task %4d -> worker %4d (user %4d)  if=%.4f  d=%.2fkm\n",
				pr.Task, pr.Worker, inst.Workers[pr.Worker].User,
				set.Influence[i], set.TravelKm[i])
		}
	}
}

// streamParams bundles everything the -stream replay needs: the trace
// to build, the engine to replay it through and the instant grid.
type streamParams struct {
	trace   trace.Params
	engine  engine.Config
	grid    engine.Grid
	csvPath string
}

// runStream replays a deterministic arrival trace through the streaming
// engine on the instant grid and prints the run summary. The trace is
// rebuilt from (dataset, trace params) rather than shipped, so a -serve
// run with the same flags posts the identical workload to a live
// dita-serve, and the two assignment CSVs can be diffed byte for byte.
func runStream(fw *core.Framework, data *dataset.Data, p streamParams) {
	ws, ts, err := trace.Build(data, p.trace)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	e, err := engine.New(fw, p.engine)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := p.grid.Schedule(ws, ts)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Now() //dita:wallclock
	instants, err := e.Replay(sched)
	if err != nil {
		log.Fatalf("stream: %v", err)
	}
	elapsed := time.Since(wall) //dita:wallclock
	totals := e.Totals()

	fmt.Printf("\n%s streamed over [%g, %g]h in %g-h instants (%d arrivals each side):\n",
		p.engine.Algorithm, p.grid.Start, p.grid.Start+p.grid.Horizon, p.grid.Step, p.trace.Arrivals)
	fmt.Printf("  instants             %d\n", totals.Instants)
	fmt.Printf("  assigned tasks       %d\n", totals.Assigned)
	fmt.Printf("  expired tasks        %d\n", totals.Expired)
	fmt.Printf("  completion rate      %.4f\n", totals.CompletionRate())
	fmt.Printf("  still online/open    %d/%d\n", e.Online(), e.Open())
	fmt.Printf("  replay wall time     %s\n", elapsed.Round(time.Millisecond))

	if p.csvPath != "" {
		csv := engine.AssignCSV(instants)
		if err := atomicio.WriteFile(p.csvPath, csv, 0o644); err != nil {
			log.Fatalf("assign-csv: %v", err)
		}
		fmt.Printf("  assignment CSV       %s (%d rows)\n", p.csvPath, totals.Assigned)
	}
}

// writeAssignCSV dumps the assignment in a fully deterministic text
// form: floats print as the shortest decimal that parses back exactly,
// so two runs that are bit-identical produce byte-identical files — the
// property the component-parallel CI smoke diffs on. The write goes
// through atomicio like every other artifact write, so a run killed
// mid-dump can never leave a torn CSV where the smoke's cmp (or any
// other consumer) would read it.
func writeAssignCSV(path string, inst *model.Instance, set *model.AssignmentSet) error {
	var b strings.Builder
	b.WriteString("task,worker,user,influence,travel_km\n")
	for i, pr := range set.Pairs {
		fmt.Fprintf(&b, "%d,%d,%d,%s,%s\n",
			pr.Task, pr.Worker, inst.Workers[pr.Worker].User,
			strconv.FormatFloat(set.Influence[i], 'g', -1, 64),
			strconv.FormatFloat(set.TravelKm[i], 'g', -1, 64))
	}
	return atomicio.WriteFile(path, []byte(b.String()), 0o644)
}
