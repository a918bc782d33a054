package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/wire"
)

// request is one request a recorder server saw.
type request struct {
	method, path, body string
}

// recorder is an httptest server that records every request and answers
// with reply(n), n counting requests from 0.
func recorder(t *testing.T, reply func(n int) (int, string)) (*httptest.Server, func() []request) {
	t.Helper()
	var (
		mu   sync.Mutex
		seen []request
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		n := len(seen)
		seen = append(seen, request{r.Method, r.URL.Path, string(raw)})
		mu.Unlock()
		code, body := reply(n)
		w.WriteHeader(code)
		io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv, func() []request {
		mu.Lock()
		defer mu.Unlock()
		return append([]request(nil), seen...)
	}
}

// clientTrace is a small hand-made trace on the grid 10, 11, 12, 13.
func clientTrace(t *testing.T) (engine.Grid, []engine.WorkerArrival, []engine.TaskArrival) {
	t.Helper()
	ws := []engine.WorkerArrival{
		{User: 3, Loc: geo.Point{X: 1, Y: 2}, Radius: 25, At: 10},
		{User: 5, Loc: geo.Point{X: 3, Y: 4}, Radius: 20, At: 10.5},
		{User: 3, Loc: geo.Point{X: 5, Y: 6}, Radius: 25, At: 12.2},
	}
	ts := []engine.TaskArrival{
		{Loc: geo.Point{X: 1, Y: 1}, Publish: 10, Valid: 4, Categories: []model.CategoryID{2}, Venue: 7},
		{Loc: geo.Point{X: 2, Y: 2}, Publish: 11.9, Valid: 3, Categories: []model.CategoryID{1, 4}, Venue: 9},
	}
	return engine.Grid{Start: 10, Step: 1, Horizon: 3}, ws, ts
}

// TestPostScheduleFollowsSharedSchedule: the -serve client posts exactly
// the shared grid schedule in its wire form — same paths, same order,
// same bodies — under the region's base URL.
func TestPostScheduleFollowsSharedSchedule(t *testing.T) {
	grid, ws, ts := clientTrace(t)
	srv, seen := recorder(t, func(int) (int, string) { return http.StatusOK, `{}` })
	sched, err := grid.Schedule(ws, ts)
	if err != nil {
		t.Fatal(err)
	}
	posted, err := postSchedule(srv.Client(), srv.URL+"/v1/default", sched)
	if err != nil {
		t.Fatal(err)
	}

	var want []request
	for ev := range sched {
		path, body, err := wire.Post(ev)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, request{"POST", "/v1/default" + path, string(raw)})
	}
	got := seen()
	if posted != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("posted %d requests:\n%v\nwant %d:\n%v", posted, got, len(want), want)
	}
	// Due workers, then due tasks, then the instant, at every grid point.
	var paths []string
	for _, r := range got {
		paths = append(paths, strings.TrimPrefix(r.path, "/v1/default/"))
	}
	wantPaths := "workers tasks instant workers instant tasks instant workers instant"
	if strings.Join(paths, " ") != wantPaths {
		t.Fatalf("request order %v, want %s", paths, wantPaths)
	}
}

// TestPostScheduleAbortsOnRejection: the first non-200 reply stops the
// replay, and the error carries the status and the server's message.
func TestPostScheduleAbortsOnRejection(t *testing.T) {
	grid, ws, ts := clientTrace(t)
	srv, seen := recorder(t, func(n int) (int, string) {
		if n == 2 {
			return http.StatusBadRequest, `{"error":"engine: venue 7 outside [0, 5)"}`
		}
		return http.StatusOK, `{}`
	})
	sched, err := grid.Schedule(ws, ts)
	if err != nil {
		t.Fatal(err)
	}
	posted, err := postSchedule(srv.Client(), srv.URL+"/v1/default", sched)
	if err == nil {
		t.Fatal("a 400 reply did not abort the replay")
	}
	for _, part := range []string{"POST /instant", "400 Bad Request", "venue 7 outside [0, 5)"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q lacks %q", err, part)
		}
	}
	if posted != 2 || len(seen()) != 3 {
		t.Fatalf("%d accepted, %d sent; want 2 accepted and nothing sent after the rejection", posted, len(seen()))
	}
}
