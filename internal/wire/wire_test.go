package wire

import (
	"encoding/json"
	"reflect"
	"testing"

	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
)

// TestPostPinsWireForm: each posted event kind maps to its endpoint and
// encodes to the exact JSON dita-serve has always accepted, and the
// arrival bodies convert back to the engine payload they came from.
func TestPostPinsWireForm(t *testing.T) {
	w := engine.WorkerArrival{User: 7, Loc: geo.Point{X: 1.5, Y: -2}, Radius: 25, At: 600.25}
	tk := engine.TaskArrival{
		Loc: geo.Point{X: 3, Y: 4.5}, Publish: 601, Valid: 5.5,
		Categories: []model.CategoryID{2, 9}, Venue: 41,
	}
	cases := []struct {
		ev         engine.Event
		path, body string
	}{
		{engine.Event{Kind: engine.WorkerArrive, At: 600.5, Worker: w}, "/workers",
			`{"user":7,"x":1.5,"y":-2,"radius":25,"at":600.25}`},
		{engine.Event{Kind: engine.TaskArrive, At: 601, Task: tk}, "/tasks",
			`{"x":3,"y":4.5,"publish":601,"valid":5.5,"categories":[2,9],"venue":41}`},
		{engine.Event{Kind: engine.InstantFire, At: 601.5}, "/instant", `{"at":601.5}`},
	}
	for _, c := range cases {
		path, body, err := Post(c.ev)
		if err != nil {
			t.Fatalf("%v: %v", c.ev.Kind, err)
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if path != c.path || string(raw) != c.body {
			t.Errorf("%v: POST %s %s, want POST %s %s", c.ev.Kind, path, raw, c.path, c.body)
		}
	}
	if got := FromWorker(w).Arrival(); !reflect.DeepEqual(got, w) {
		t.Errorf("worker round trip: %+v, want %+v", got, w)
	}
	if got := FromTask(tk).Arrival(); !reflect.DeepEqual(got, tk) {
		t.Errorf("task round trip: %+v, want %+v", got, tk)
	}
	for _, k := range []engine.EventKind{engine.WorkerDepart, engine.TaskExpire} {
		if _, _, err := Post(engine.Event{Kind: k}); err == nil {
			t.Errorf("%v: posted, want an error", k)
		}
	}
}
