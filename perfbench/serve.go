package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dita/internal/engine"
)

// serveProc is one dita-serve subprocess listening on a loopback port.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer // read only after exited is closed
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServe execs dita-serve and waits for its first healthy /healthz.
// The returned duration runs from exec to that response, so it includes
// the artifact load. A port taken by another process between freePort
// and dita-serve's bind is retried on a fresh port.
func startServe(bin string, args []string, clock func() time.Duration) (*serveProc, time.Duration, error) {
	for range 3 {
		p, d, err := startServeOnce(bin, args, clock)
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			return p, d, err
		}
	}
	return nil, 0, errors.New("dita-serve: no free port after 3 attempts")
}

func startServeOnce(bin string, args []string, clock func() time.Duration) (*serveProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &serveProc{base: "http://" + addr, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = &p.stderr
	// Should the benchmark die without draining the server, the kernel
	// kills it rather than leave it running.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

	t0 := clock()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dita-serve: %w", err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is read from ProcessState by stop
		close(p.exited)
	}()
	deadline := t0 + 60*time.Second
	for {
		resp, err := probe.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, clock() - t0, nil
			}
		}
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("dita-serve exited before becoming healthy: %s", p.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if clock() > deadline {
			_, _ = p.stop()
			return nil, 0, errors.New("dita-serve not healthy after 60 s")
		}
	}
}

// peakRSS reads the process's resident-set high-water mark (VmHWM) in
// MB. The wait4 rusage cannot give it: a child started with
// vfork-style clone, as Go starts processes, inherits the parent's
// high-water mark into its ru_maxrss at exec, so that figure is the
// benchmark's own footprint whenever it is the larger. VmHWM belongs to
// the address space exec created.
func (p *serveProc) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("dita-serve peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("dita-serve peak RSS: %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("dita-serve peak RSS: no VmHWM in /proc status")
}

// stop sends SIGTERM — dita-serve's drain: in-flight instants complete
// and the assignment CSV is written — and waits for the process to exit.
// The returned usage is the process's own, from wait4.
func (p *serveProc) stop() (*syscall.Rusage, error) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited, which the wait below sees
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return nil, errors.New("dita-serve did not drain within 60 s")
	}
	ru, _ := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !p.cmd.ProcessState.Success() {
		return ru, fmt.Errorf("dita-serve drain: %s: %s", p.cmd.ProcessState, p.stderr.String())
	}
	return ru, nil
}

// request is one prepared HTTP request of a replay. Bodies are encoded
// before the replay starts so the client's encoding cost stays out of
// the timed loop.
type request struct {
	kind engine.EventKind
	path string
	body []byte
}

// Wire forms of dita-serve's endpoints (cmd/dita-serve/server.go).
type workerReq struct {
	User   int32   `json:"user"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	At     float64 `json:"at"`
}

type taskReq struct {
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Publish    float64 `json:"publish"`
	Valid      float64 `json:"valid"`
	Categories []int32 `json:"categories"`
	Venue      int32   `json:"venue"`
}

// instantResp is the part of dita-serve's instant wire form the
// benchmark reads: the phase times the server measured.
type instantResp struct {
	PrepareMs   float64 `json:"prepare_ms"`
	PairMaintMs float64 `json:"pair_maint_ms"`
	AssignMs    float64 `json:"assign_ms"`
}

// phases returns the instant's self-reported phase durations in
// instantPhases order.
func (r *instantResp) phases() []time.Duration {
	d := func(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
	return []time.Duration{d(r.PrepareMs), d(r.PairMaintMs), d(r.AssignMs)}
}

func (r *instantResp) serverTime() time.Duration {
	var s time.Duration
	for _, d := range r.phases() {
		s += d
	}
	return s
}

// serveMetrics is the part of a region's /metrics the gates read.
type serveMetrics struct {
	Open   int           `json:"open"`
	Totals engine.Totals `json:"totals"`
}

const region = "default"

func buildRequests(steps []step) []request {
	out := make([]request, len(steps))
	for i, st := range steps {
		var v any
		r := request{kind: st.kind}
		switch st.kind {
		case engine.WorkerArrive:
			r.path = "/v1/" + region + "/workers"
			v = workerReq{User: int32(st.w.User), X: st.w.Loc.X, Y: st.w.Loc.Y, Radius: st.w.Radius, At: st.w.At}
		case engine.TaskArrive:
			cats := make([]int32, len(st.t.Categories))
			for j, c := range st.t.Categories {
				cats[j] = int32(c)
			}
			r.path = "/v1/" + region + "/tasks"
			v = taskReq{X: st.t.Loc.X, Y: st.t.Loc.Y, Publish: st.t.Publish, Valid: st.t.Valid, Categories: cats, Venue: int32(st.t.Venue)}
		default:
			r.path = "/v1/" + region + "/instant"
			v = map[string]float64{"at": st.at}
		}
		r.body, _ = json.Marshal(v) // plain structs of numbers cannot fail to encode
		out[i] = r
	}
	return out
}

// sample is one request's timing and outcome, on the benchmark clock.
// due is when the request was scheduled to be sent; in a closed loop it
// is the send time.
type sample struct {
	kind            engine.EventKind
	due, sent, done time.Duration
	status          int
	ok              bool
	inst            *instantResp // the instant the response reported, if any
	fail            string
}

// exchange sends one request and returns the status and response body.
type exchange func(r request) (int, []byte, error)

// runLoop replays reqs in order over ex. With interval 0 it is a closed
// loop: each request is sent when the previous response arrived. With a
// positive interval it is an open loop with one sender: request i is
// due at start + i·interval, sent then or — if the sender is still
// waiting on an earlier response — as soon as it is free, and its
// latency is measured from the due time, so a stall behind an inline
// instant is charged to every request it delayed.
func runLoop(reqs []request, interval time.Duration, clock func() time.Duration, sleepUntil func(time.Duration), ex exchange) []sample {
	out := make([]sample, len(reqs))
	start := clock()
	for i, r := range reqs {
		s := sample{kind: r.kind}
		if interval > 0 {
			s.due = start + time.Duration(i)*interval
			if clock() < s.due {
				sleepUntil(s.due)
			}
			s.sent = clock()
		} else {
			s.sent = clock()
			s.due = s.sent
		}
		status, body, err := ex(r)
		s.done = clock()
		s.status = status
		switch {
		case err != nil:
			s.fail = err.Error()
		case status < 200 || status > 299:
			s.fail = fmt.Sprintf("%s %d: %.300s", r.path, status, body)
		default:
			s.ok = true
			if s.inst, err = parseInstant(r.kind, body); err != nil {
				s.ok, s.fail = false, fmt.Sprintf("%s: %v: %.300s", r.path, err, body)
			}
		}
		out[i] = s
	}
	return out
}

// parseInstant extracts the instant a response reports: the whole body
// of an /instant response, or the inline "instant" member of an arrival
// response whose trigger fired.
func parseInstant(kind engine.EventKind, body []byte) (*instantResp, error) {
	if kind == engine.InstantFire {
		var r instantResp
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return &r, nil
	}
	var a struct {
		Instant *instantResp `json:"instant"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, err
	}
	return a.Instant, nil
}

// client speaks to one dita-serve over a single keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) exchange(r request) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (c *client) metrics() (serveMetrics, error) {
	var m serveMetrics
	resp, err := c.hc.Get(c.base + "/v1/" + region + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// sleepUntil sleeps until the benchmark clock reads t.
func sleepUntil(clock func() time.Duration) func(time.Duration) {
	return func(t time.Duration) {
		if d := t - clock(); d > 0 {
			time.Sleep(d)
		}
	}
}

// httpRun is a replay against a live dita-serve, drained.
type httpRun struct {
	samples []sample
	metrics serveMetrics
	usage   *syscall.Rusage
	peakRSS float64 // MB, read before the drain
	csv     []byte
}

// replayHTTP runs the replay against p, reads the region's counters,
// drains the server with SIGTERM and reads the CSV it wrote. With a
// recorder it adds a span per request — and the phases each reported
// instant ran — after the replay, so tracing costs nothing while
// requests are in flight.
func replayHTTP(p *serveProc, reqs []request, interval time.Duration, clock func() time.Duration, csvPath string, rec *recorder) (*httpRun, error) {
	c := newClient(p.base)
	id := rec.begin(root, "loadgen.replay_http", -1)
	r := &httpRun{samples: runLoop(reqs, interval, clock, sleepUntil(clock), c.exchange)}
	rec.end(id)
	for i, s := range r.samples {
		if rid := rec.add(id, "dita-serve.request", i, s.sent, s.done); rid >= 0 && s.inst != nil {
			rec.phases(rid, i, instantPhases, s.inst.phases())
		}
	}

	id = rec.begin(root, "dita-serve.drain", -1)
	defer rec.end(id)
	var err error
	if r.metrics, err = c.metrics(); err != nil {
		_, _ = p.stop()
		return nil, fmt.Errorf("read server metrics: %w", err)
	}
	c.tr.CloseIdleConnections()
	if r.peakRSS, err = p.peakRSS(); err != nil {
		_, _ = p.stop()
		return nil, err
	}
	if r.usage, err = p.stop(); err != nil {
		return nil, err
	}
	if r.csv, err = os.ReadFile(csvPath); err != nil {
		return nil, fmt.Errorf("read drained CSV: %w", err)
	}
	return r, nil
}
