package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dita/internal/engine"
)

func TestTailRule(t *testing.T) {
	beyond := func(tenths, n int) int { return n - (tenths*n+999)/1000 }
	for n := minBeyond + 1; n <= 5000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		tl, ok := tailOf(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if b := beyond(tl.Tenths, n); b < minBeyond {
			t.Fatalf("n=%d: p%d has %d samples beyond, want >= %d", n, tl.Tenths, b, minBeyond)
		}
		if tl.Tenths < 999 && beyond(tl.Tenths+1, n) >= minBeyond {
			t.Fatalf("n=%d: p%d is not the highest qualifying percentile", n, tl.Tenths)
		}
		rank := (tl.Tenths*n + 999) / 1000
		if tl.Value != float64(rank) || tl.N != n {
			t.Fatalf("n=%d: value %v n %d, want rank %d", n, tl.Value, tl.N, rank)
		}
	}
	for _, c := range []struct {
		n    int
		want string
	}{{49, "p79.5 of n=49"}, {93, "p89.2 of n=93"}, {16000, "p99.9 of n=16000"}} {
		tl, _ := tailOf(make([]float64, c.n))
		if tl.String() != c.want {
			t.Errorf("n=%d: %s, want %s", c.n, tl, c.want)
		}
	}
	if _, ok := tailOf(make([]float64, minBeyond)); ok {
		t.Errorf("%d samples cannot have %d beyond any percentile", minBeyond, minBeyond)
	}
}

// fakeClock is a manual clock: sleeps jump to their deadline and each
// exchange advances it by its service time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) read() time.Duration        { return c.now }
func (c *fakeClock) sleepUntil(t time.Duration) { c.now = max(c.now, t) }

// An open-loop sender stuck behind a slow response (an inline instant)
// sends the requests that fell due meanwhile late; their latency runs
// from the due time, so each carries its share of the stall.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	reqs := make([]request, 6)
	for i := range reqs {
		reqs[i] = request{kind: engine.TaskArrive, path: "/v1/default/tasks"}
	}
	ex := func(r request) (int, []byte, error) {
		if clk.now == 10*time.Millisecond { // request 1 fires an instant
			clk.now += 45 * time.Millisecond
			return 200, []byte(`{"task_id":1,"instant":{"assigned":[{}],"prepare_ms":30,"pair_maint_ms":5,"assign_ms":5}}`), nil
		}
		clk.now += time.Millisecond
		return 200, []byte(`{"task_id":0}`), nil
	}
	samples := runLoop(reqs, 10*time.Millisecond, clk.read, clk.sleepUntil, ex)
	sum := summarize(samples, true)

	wantIngest := []float64{1, 36, 27, 18, 9} // requests 0, 2, 3, 4, 5
	wantLate := []float64{0, 0, 35, 26, 17, 8}
	if !equalF(sum.ingest, wantIngest) || !equalF(sum.late, wantLate) {
		t.Fatalf("ingest %v late %v, want %v and %v", sum.ingest, sum.late, wantIngest, wantLate)
	}
	if !equalF(sum.instant, []float64{45}) || !equalF(sum.overhead, []float64{5}) {
		t.Fatalf("instant %v overhead %v, want [45] and [5]", sum.instant, sum.overhead)
	}
	if sum.serverSum != 40*time.Millisecond || sum.attempted != 6 || sum.failed != 0 {
		t.Fatalf("server %v attempted %d failed %d", sum.serverSum, sum.attempted, sum.failed)
	}
	// 6 requests from the first send (0) to the last response (59 ms).
	if got, want := sum.throughput, 6/0.059; got < want*0.999 || got > want*1.001 {
		t.Fatalf("throughput %v, want %v", got, want)
	}
}

// In a closed loop each request is due when it is sent, and only grid
// instants that had arrivals since the previous one are instant samples.
func TestClosedLoopInstantPopulation(t *testing.T) {
	clk := &fakeClock{}
	kinds := []engine.EventKind{engine.InstantFire, engine.WorkerArrive, engine.TaskArrive, engine.InstantFire, engine.InstantFire}
	reqs := make([]request, len(kinds))
	for i, k := range kinds {
		reqs[i] = request{kind: k}
	}
	ex := func(r request) (int, []byte, error) {
		if r.kind == engine.InstantFire {
			clk.now += 20 * time.Millisecond
			return 200, []byte(`{"assigned":[],"prepare_ms":1,"pair_maint_ms":1,"assign_ms":1}`), nil
		}
		clk.now += time.Millisecond
		return 200, []byte(`{"worker_id":0}`), nil
	}
	sum := summarize(runLoop(reqs, 0, clk.read, clk.sleepUntil, ex), false)
	if !equalF(sum.instant, []float64{20}) || !equalF(sum.ingest, []float64{1, 1}) || maxOf(sum.late) != 0 {
		t.Fatalf("instant %v ingest %v late %v", sum.instant, sum.ingest, sum.late)
	}
}

// A refused request is counted failed, its body is kept, and the run's
// result is incorrect with a non-zero exit status.
func TestFailedRequestFailsRun(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 2 {
			http.Error(w, `{"error":"negative radius"}`, http.StatusBadRequest)
			return
		}
		w.Write([]byte(`{"worker_id":0}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i] = request{kind: engine.WorkerArrive, path: "/v1/default/workers", body: []byte(`{}`)}
	}
	clock := func() time.Duration { return time.Duration(time.Now().UnixNano()) }
	sum := summarize(runLoop(reqs, 0, clock, sleepUntil(clock), c.exchange), false)
	if sum.attempted != 4 || sum.failed != 1 || sum.non2xx != 1 || len(sum.failures) != 1 ||
		!strings.Contains(sum.failures[0], "negative radius") {
		t.Fatalf("attempted %d failed %d non2xx %d failures %q", sum.attempted, sum.failed, sum.non2xx, sum.failures)
	}

	var stdout, stderr bytes.Buffer
	out := &runOutput{res: result{Metrics: map[string]metric{"x_ms": {1, "ms"}}}, http: sum}
	if code := report(&stdout, &stderr, out, &gates{}); code == 0 {
		t.Fatal("a failed request must fail the run")
	}
	res := lastResult(t, stdout.String())
	if res.Correct || res.Attempted != 4 || res.Failed != 1 {
		t.Fatalf("result %+v", res)
	}
	if !strings.Contains(stdout.String(), "negative radius") {
		t.Fatalf("failing body not kept in the run description: %s", stdout.String())
	}
}

// A drained CSV that differs from the in-process replay fails the run.
func TestCSVMismatchFailsRun(t *testing.T) {
	steps := []step{{kind: engine.TaskArrive}, {kind: engine.InstantFire}}
	totals := engine.Totals{Events: 1, Instants: 1, Assigned: 1}
	served := "at,task,worker,user,influence,travel_km\n600,0,0,3,0.25,1.5\n"
	hr := &httpRun{csv: []byte(served), metrics: serveMetrics{Totals: totals}}
	er := &engineRun{csv: []byte(served), totals: totals}

	g := &gates{}
	checkOutputs(g, steps, hr, er)
	if len(g.failures) != 0 {
		t.Fatalf("identical outputs failed: %v", g.failures)
	}

	er.csv = []byte(strings.Replace(served, "0.25", "0.26", 1))
	checkOutputs(g, steps, hr, er)
	if len(g.failures) != 1 || !strings.Contains(g.failures[0], "at line 2") {
		t.Fatalf("failures %q, want one CSV mismatch at line 2", g.failures)
	}
	var stdout, stderr bytes.Buffer
	out := &runOutput{res: result{Metrics: map[string]metric{}}, http: &httpSummary{attempted: 2}}
	if code := report(&stdout, &stderr, out, g); code == 0 {
		t.Fatal("a CSV mismatch must fail the run")
	}
	if res := lastResult(t, stdout.String()); res.Correct {
		t.Fatalf("result %+v reads correct", res)
	}
	if !strings.Contains(stderr.String(), "drained CSV") {
		t.Fatalf("gate failure not reported: %s", stderr.String())
	}
}

// Tasks neither assigned nor expired nor still open break conservation.
func TestConservationGate(t *testing.T) {
	steps := []step{{kind: engine.TaskArrive}, {kind: engine.TaskArrive}, {kind: engine.InstantFire}}
	totals := engine.Totals{Events: 2, Instants: 1, Assigned: 1}
	hr := &httpRun{metrics: serveMetrics{Totals: totals}}
	er := &engineRun{totals: totals}
	g := &gates{}
	checkOutputs(g, steps, hr, er)
	if len(g.failures) == 0 || !strings.Contains(strings.Join(g.failures, "\n"), "conservation") {
		t.Fatalf("failures %q, want a conservation failure", g.failures)
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	clk := &fakeClock{}
	rec := &recorder{clock: clk.read}
	rec.begin(-1, "run", -1)
	clk.now = 2
	a := rec.begin(root, "lda.train", -1)
	clk.now = 7
	rec.end(a)
	b := rec.add(root, "engine.fire", 0, 8, 20)
	rec.phases(b, 0, instantPhases, []time.Duration{3, 1, 4})
	clk.now = 25
	rec.end(root)
	self := rec.selfTimes()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 25 || self["lda"] != 5 || self["engine"] != 4 || self["influence"] != 3 || self["unattributed"] != 8 {
		t.Fatalf("self times %v (sum %v)", self, sum)
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if d := a[i] - b[i]; d > 1e-9 || d < -1e-9 {
			return false
		}
	}
	return true
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}
