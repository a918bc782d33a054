// Command perfbench is the repository benchmark. Each invocation runs
// one workload end to end: the cold offline phase (dataset generation,
// training, sealing the framework artifact and loading it back) and a
// replay of a generated arrival trace against a dita-serve subprocess
// until it drains. It checks the outputs — the drained assignment CSV
// must be byte-identical to an in-process engine replay of the same
// event sequence — and prints one JSON result line last.
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// the run calls each layer separately, records spans around every call
// and request, and reports per-layer metrics plus a self-time table.
//
// Usage (from the repository root, through the wrapper that builds the
// binaries):
//
//	bash perfbench/run.sh --workload grid-bk-8k --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dita/internal/assign"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/trace"
)

// The online configuration every workload serves with: IA with the full
// influence mask, session seed 1, all cores.
const (
	algorithm   = assign.IA
	sessionSeed = 1
)

// Trace shape shared by the workloads: arrivals spread over 12 h from
// the evaluation day, 25 km radius, 5–7 h validity, 24 h horizon on a
// 0.5 h instant grid.
const (
	spreadH    = 12
	radiusKm   = 25
	validMinH  = 5
	validSpanH = 2
	stepH      = 0.5
	horizonH   = 24
	batchSize  = 64
)

// setupStarts is how many times a timed run starts dita-serve and stops
// it once healthy; setup_s and setup_rss_mb are the medians. One more
// start then serves the replay.
const setupStarts = 7

// workload is one traffic pattern against dita-serve.
type workload struct {
	name     string
	arrivals int
	// open selects the open loop: one sender at a fixed offered rate
	// against the batch trigger. Otherwise the closed loop replays the
	// 0.5 h grid against the manual trigger.
	open bool
}

var workloads = []workload{
	{name: "grid-bk-8k", arrivals: 8000},
	{name: "open-bk-3k", arrivals: 3000, open: true},
}

func (w workload) steps(data *dataset.Data, seed uint64) ([]step, error) {
	ws, ts, err := trace.Build(data, trace.Params{
		Arrivals: w.arrivals, Seed: seed, Start: cutoffHours, Spread: spreadH,
		RadiusKm: radiusKm, ValidMin: validMinH, ValidSpan: validSpanH,
	})
	if err != nil {
		return nil, err
	}
	if w.open {
		return openSteps(ws, ts, cutoffHours+horizonH), nil
	}
	return gridSteps(ws, ts, cutoffHours, stepH, horizonH), nil
}

func (w workload) trigger() engine.Trigger {
	if w.open {
		return engine.BatchTrigger{N: batchSize}
	}
	return engine.ManualTrigger{}
}

func (w workload) serveArgs(artifact, csvPath string) []string {
	args := []string{"-framework", artifact, "-assign-csv", csvPath,
		"-alg", algorithm.String(), "-mask", "IA", "-seed", strconv.Itoa(sessionSeed), "-parallel", "0"}
	if w.open {
		return append(args, "-trigger", "batch", "-batch", strconv.Itoa(batchSize))
	}
	return append(args, "-trigger", "manual")
}

// interval is the open loop's send spacing: the 2·arrivals arrivals and
// the closing instant spread evenly over the run's seconds. Zero for the
// closed loop.
func (w workload) interval(seconds int) time.Duration {
	if !w.open {
		return 0
	}
	return time.Duration(seconds) * time.Second / time.Duration(2*w.arrivals)
}

// gates collects correctness failures; any failure fails the run.
type gates struct{ failures []string }

func (g *gates) check(ok bool, format string, args ...any) {
	if !ok {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result: what was run, the
// tail percentiles behind the *_tail_ms figures, kept failure bodies and
// the run-validity fields.
type runInfo struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    int               `json:"trace"`
	Artifact string            `json:"artifact_sha256"`
	Tails    map[string]string `json:"tails,omitempty"`
	Failures []string          `json:"failures,omitempty"`
	Spans    string            `json:"spans,omitempty"`
	Validity runValidity       `json:"validity"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	serveBin string
	scratch  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: grid-bk-8k or open-bk-3k")
	flag.Uint64Var(&o.seed, "seed", 1, "trace seed; the served events are generated from it")
	flag.IntVar(&o.seconds, "seconds", 15, "open-loop send window in seconds (sets the offered rate)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "dita-serve binary built from this checkout")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for run files")
	flag.Parse()
	os.Exit(run(o, os.Stdout, os.Stderr))
}

func run(o options, stdout, stderr io.Writer) int {
	var w workload
	for _, c := range workloads {
		if c.name == o.workload {
			w = c
		}
	}
	if w.name == "" || o.serveBin == "" || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload grid-bk-8k|open-bk-3k, -serve-bin, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	dir := filepath.Join(o.scratch, fmt.Sprintf("run-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	epoch := time.Now()
	clock := func() time.Duration { return time.Since(epoch) }
	g := &gates{}
	cpu0 := readCPUTimes()
	rc := runCtx{o: o, w: w, dir: dir, clock: clock, g: g, stdout: stdout}
	var (
		out *runOutput
		err error
	)
	if o.trace == 1 {
		out, err = rc.traced()
	} else {
		out, err = rc.timed()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	info := &out.info
	info.Workload, info.Seed, info.Seconds, info.Trace = w.name, o.seed, o.seconds, o.trace
	info.Validity = newRunValidity(cpu0, readCPUTimes(), median(out.http.late), maxOf(out.http.late))
	if o.trace == 1 {
		out.res.Metrics["host.steal_share"] = metric{info.Validity.StealShare, "ratio"}
		out.res.Metrics["host.gomaxprocs"] = metric{float64(info.Validity.GOMAXPROCS), "count"}
	}
	return report(stdout, stderr, out, g)
}

// report prints the run description and, last, the result line. Every
// request is counted attempted or failed; a failed request or any
// failed gate makes the result incorrect and the exit status 1.
func report(stdout, stderr io.Writer, out *runOutput, g *gates) int {
	sum := out.http
	out.info.Failures = sum.failures
	out.res.Attempted, out.res.Failed = sum.attempted, sum.failed
	g.check(sum.failed == 0, "%d of %d requests failed", sum.failed, sum.attempted)
	out.res.Correct = len(g.failures) == 0
	for _, f := range g.failures {
		fmt.Fprintln(stderr, "perfbench: correctness gate failed:", f)
	}
	info, err := json.Marshal(out.info)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(out.res)
	if err != nil { // a NaN or infinite metric
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, res)
	if !out.res.Correct {
		return 1
	}
	return 0
}

// runCtx is one invocation's settings and shared state.
type runCtx struct {
	o      options
	w      workload
	dir    string
	clock  func() time.Duration
	g      *gates
	stdout io.Writer
}

type runOutput struct {
	res  result
	info runInfo
	http *httpSummary
}

func (rc *runCtx) artifactPath() string { return filepath.Join(rc.dir, "framework.json") }
func (rc *runCtx) csvPath() string      { return filepath.Join(rc.dir, "assign.csv") }

// timed measures the end-to-end metrics with tracing off.
func (rc *runCtx) timed() (*runOutput, error) {
	off, err := trainTimed(rc.artifactPath(), rc.clock, rc.g)
	if err != nil {
		return nil, err
	}
	steps, err := rc.w.steps(off.data, rc.o.seed)
	if err != nil {
		return nil, err
	}
	reqs := buildRequests(steps)
	// The in-process reference replay runs first, so the dataset and the
	// framework can be released before the timed replay and the client's
	// garbage collector has little heap to scan while requests are in
	// flight.
	er, err := replayEngine(off.fw, steps, rc.w.trigger(), rc.clock, nil, -1)
	if err != nil {
		return nil, err
	}
	checksum, artifactBytes, trainS := off.checksum, off.bytes, off.trainS
	off = nil
	runtime.GC()

	args := rc.w.serveArgs(rc.artifactPath(), rc.csvPath())
	var setups, setupRSS []float64
	for range setupStarts {
		sp, d, err := startServe(rc.o.serveBin, args, rc.clock)
		if err != nil {
			return nil, err
		}
		rss, rerr := sp.peakRSS()
		if _, err := sp.stop(); err != nil {
			return nil, err
		}
		if rerr != nil {
			return nil, rerr
		}
		setups = append(setups, secs(d))
		setupRSS = append(setupRSS, rss)
	}
	p, _, err := startServe(rc.o.serveBin, args, rc.clock)
	if err != nil {
		return nil, err
	}
	hr, err := replayHTTP(p, reqs, rc.w.interval(rc.o.seconds), rc.clock, rc.csvPath(), nil)
	if err != nil {
		return nil, err
	}
	checkOutputs(rc.g, steps, hr, er)
	sum := summarize(hr.samples, rc.w.open)
	assigned, meanInf := csvStats(hr.csv)

	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"setup_rss_mb":   {median(setupRSS), "MB"},
		"train_s":        {trainS, "s"},
		"artifact_mb":    {float64(artifactBytes) / 1e6, "MB"},
		"throughput_eps": {sum.throughput, "events/s"},
		"instant_p50_ms": {median(sum.instant), "ms"},
		"assigned_tasks": {float64(assigned), "count"},
		"mean_influence": {meanInf, "score"},
	}
	t, ok := tailOf(sum.instant)
	if !ok {
		return nil, fmt.Errorf("only %d instant samples, the tail rule needs more than %d", len(sum.instant), minBeyond)
	}
	m["instant_tail_ms"] = metric{t.Value, "ms"}
	tails := map[string]string{"instant_tail_ms": t.String()}
	// Ingest latency is printed for reading but is not a metric: a
	// closed-loop POST takes ~0.15 ms, mostly thread wake-ups, and its
	// median and tail move with the host far more than any bound allows.
	if t, ok := tailOf(sum.ingest); ok {
		tails["ingest_ms"] = fmt.Sprintf("p50 %.4f, %s: %.4f", median(sum.ingest), t, t.Value)
	}
	m["peak_rss_mb"] = metric{hr.peakRSS, "MB"}
	m["cpu_s"] = metric{secs(cpuTime(hr.usage)), "s"}
	return &runOutput{
		res:  result{Metrics: m},
		info: runInfo{Artifact: checksum, Tails: tails},
		http: sum,
	}, nil
}

// traced calls each layer separately under spans and reports the
// per-layer metrics and self-time table.
func (rc *runCtx) traced() (*runOutput, error) {
	rec := &recorder{clock: rc.clock}
	rec.begin(-1, "run", -1)
	off, tl, err := trainTraced(rc.artifactPath(), rc.clock, rec, rc.g)
	if err != nil {
		return nil, err
	}
	steps, err := rc.w.steps(off.data, rc.o.seed)
	if err != nil {
		return nil, err
	}
	reqs := buildRequests(steps)

	// The same replay untraced and traced; the difference is the
	// tracing overhead.
	id := rec.begin(root, "verify.replay_untraced", -1)
	plain, err := replayEngine(off.fw, steps, rc.w.trigger(), rc.clock, nil, -1)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin(root, "loadgen.replay_engine", -1)
	er, err := replayEngine(off.fw, steps, rc.w.trigger(), rc.clock, rec, id)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin(root, "dita-serve.start", -1)
	p, _, err := startServe(rc.o.serveBin, rc.w.serveArgs(off.path, rc.csvPath()), rc.clock)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	hr, err := replayHTTP(p, reqs, rc.w.interval(rc.o.seconds), rc.clock, rc.csvPath(), rec)
	if err != nil {
		return nil, err
	}
	id = rec.begin(root, "verify.outputs", -1)
	rc.g.check(bytes.Equal(plain.csv, er.csv), "traced and untraced in-process replays differ")
	checkOutputs(rc.g, steps, hr, er)
	sum := summarize(hr.samples, rc.w.open)
	rec.end(id)
	rec.end(root)

	title := fmt.Sprintf("%s, seed %d", rc.w.name, rc.o.seed)
	rec.writeSelfTable(rc.stdout, title)
	tdir := filepath.Join(rc.o.scratch, "traces")
	spans := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.spans.jsonl", rc.w.name, rc.o.seed))
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeSpans(spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	fires := float64(max(er.fireN, 1))
	m := map[string]metric{
		"dataset.generate_s":             {tl.datasetS, "s"},
		"lda.train_s":                    {tl.ldaS, "s"},
		"mobility.fit_s":                 {tl.mobilityS, "s"},
		"entropy.compute_s":              {tl.entropyS, "s"},
		"rrr.build_s":                    {tl.rrrS, "s"},
		"rrr.sets":                       {float64(tl.rrrSets), "count"},
		"core.restore_s":                 {tl.restoreS, "s"},
		"fwio.encode_s":                  {tl.encodeS, "s"},
		"fwio.write_s":                   {tl.writeS, "s"},
		"fwio.load_s":                    {tl.loadS, "s"},
		"fwio.artifact_bytes":            {float64(off.bytes), "bytes"},
		"engine.apply_n":                 {float64(er.applyN), "count"},
		"engine.apply_s":                 {secs(er.applyD), "s"},
		"engine.fire_n":                  {float64(er.fireN), "count"},
		"engine.fire_s":                  {secs(er.fireD), "s"},
		"engine.fire_self_s":             {secs(er.fireD - er.prepare - er.pairs - er.solve), "s"},
		"engine.online_mean":             {float64(er.online) / fires, "count"},
		"engine.open_mean":               {float64(er.openSum) / fires, "count"},
		"engine.pending_mean":            {float64(er.pendg) / fires, "count"},
		"influence.prepare_s":            {secs(er.prepare), "s"},
		"influence.tasks_admitted":       {float64(er.tasksAdmitted), "count"},
		"influence.repeat_loc_share":     {float64(er.repeats) / float64(max(er.tasksAdmitted, 1)), "ratio"},
		"influence.cached_tasks_max":     {float64(er.cachedTasksMax), "count"},
		"influence.cached_workers_max":   {float64(er.cachedWorkersMax), "count"},
		"assign.pair_maint_s":            {secs(er.pairs), "s"},
		"assign.solve_s":                 {secs(er.solve), "s"},
		"assign.feasible_pairs":          {float64(er.feasible), "count"},
		"assign.largest_component":       {float64(er.largestComp), "count"},
		"dita-serve.worker_post_p50_ms":  {median(sum.workerPost), "ms"},
		"dita-serve.task_post_p50_ms":    {median(sum.taskPost), "ms"},
		"dita-serve.instant_overhead_ms": {median(sum.overhead), "ms"},
		"dita-serve.unattributed_s":      {secs(sum.wall - sum.serverSum), "s"},
		"dita-serve.non2xx":              {float64(sum.non2xx), "count"},
		"loadgen.late_p50_ms":            {median(sum.late), "ms"},
		"loadgen.late_max_ms":            {maxOf(sum.late), "ms"},
		"trace.overhead_s":               {secs(er.wall - plain.wall), "s"},
	}
	if er.mirrorMismatch > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: task mirror disagreed with the engine's open count at %d instants; influence.tasks_admitted is approximate\n", er.mirrorMismatch)
	}
	return &runOutput{
		res:  result{Metrics: m},
		info: runInfo{Artifact: off.checksum, Spans: spans},
		http: sum,
	}, nil
}

func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkOutputs applies the serve workloads' correctness gates: the
// drained CSV equals the in-process replay's byte for byte, the server's
// and the replay's counters agree, and every task sent is accounted for.
func checkOutputs(g *gates, steps []step, hr *httpRun, er *engineRun) {
	var workers, tasks, instants int
	for _, st := range steps {
		switch st.kind {
		case engine.WorkerArrive:
			workers++
		case engine.TaskArrive:
			tasks++
		default:
			instants++
		}
	}
	if !bytes.Equal(hr.csv, er.csv) {
		g.check(false, "drained CSV (%d bytes) differs from the in-process replay's (%d bytes) at line %d",
			len(hr.csv), len(er.csv), firstDiffLine(hr.csv, er.csv))
	}
	m := hr.metrics
	g.check(m.Totals.Assigned+m.Totals.Expired+m.Open == tasks,
		"conservation: assigned %d + expired %d + open %d != %d tasks sent", m.Totals.Assigned, m.Totals.Expired, m.Open, tasks)
	g.check(m.Totals.Events == workers+tasks, "server applied %d events, %d sent", m.Totals.Events, workers+tasks)
	g.check(m.Totals.Instants >= instants, "server fired %d instants, %d requested", m.Totals.Instants, instants)
	g.check(m.Totals == er.totals && m.Open == er.open,
		"server counters %+v (open %d) differ from the in-process replay's %+v (open %d)", m.Totals, m.Open, er.totals, er.open)
	rows, _ := csvStats(hr.csv)
	g.check(rows == m.Totals.Assigned, "drained CSV has %d rows, server assigned %d", rows, m.Totals.Assigned)
}

// firstDiffLine returns the 1-based line where a and b first differ.
func firstDiffLine(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return bytes.Count(a[:i], []byte("\n")) + 1
}

// csvStats counts the assignment CSV's rows and averages its influence
// column.
func csvStats(csv []byte) (rows int, meanInfluence float64) {
	lines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	sum := 0.0
	for _, l := range lines[1:] {
		f := strings.Split(l, ",")
		if len(f) != 6 {
			continue
		}
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			continue
		}
		rows++
		sum += v
	}
	if rows == 0 {
		return 0, 0
	}
	return rows, sum / float64(rows)
}
