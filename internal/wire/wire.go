// Package wire is the JSON form of dita-serve's event endpoints: the
// request bodies of a worker arrival, a task arrival and an explicit
// instant, and their conversion to and from engine events. dita-serve
// decodes these bodies and dita-sim -serve encodes them, so the two
// sides of the live replay cannot drift apart.
package wire

import (
	"fmt"

	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
)

// Worker is the body of POST /v1/{region}/workers.
type Worker struct {
	User   int32   `json:"user"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	At     float64 `json:"at"`
}

// Task is the body of POST /v1/{region}/tasks.
type Task struct {
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Publish    float64 `json:"publish"`
	Valid      float64 `json:"valid"`
	Categories []int32 `json:"categories"`
	Venue      int32   `json:"venue"`
}

// Instant is the body of POST /v1/{region}/instant.
type Instant struct {
	At float64 `json:"at"`
}

// FromWorker is the wire form of a worker arrival.
func FromWorker(a engine.WorkerArrival) Worker {
	return Worker{User: int32(a.User), X: a.Loc.X, Y: a.Loc.Y, Radius: a.Radius, At: a.At}
}

// Arrival is the engine payload the body describes.
func (w Worker) Arrival() engine.WorkerArrival {
	return engine.WorkerArrival{
		User: model.WorkerID(w.User), Loc: geo.Point{X: w.X, Y: w.Y},
		Radius: w.Radius, At: w.At,
	}
}

// FromTask is the wire form of a task arrival.
func FromTask(a engine.TaskArrival) Task {
	cats := make([]int32, len(a.Categories))
	for i, c := range a.Categories {
		cats[i] = int32(c)
	}
	return Task{
		X: a.Loc.X, Y: a.Loc.Y, Publish: a.Publish, Valid: a.Valid,
		Categories: cats, Venue: int32(a.Venue),
	}
}

// Arrival is the engine payload the body describes.
func (t Task) Arrival() engine.TaskArrival {
	cats := make([]model.CategoryID, len(t.Categories))
	for i, c := range t.Categories {
		cats[i] = model.CategoryID(c)
	}
	return engine.TaskArrival{
		Loc: geo.Point{X: t.X, Y: t.Y}, Publish: t.Publish,
		Valid: t.Valid, Categories: cats, Venue: model.VenueID(t.Venue),
	}
}

// Post maps a replay event to the request that carries it: the endpoint
// path relative to a region's base URL (/workers, /tasks or /instant)
// and the body to encode. Departures and withdrawals are DELETEs by
// platform id, not posted events, so they are an error here.
func Post(ev engine.Event) (path string, body any, err error) {
	switch ev.Kind {
	case engine.WorkerArrive:
		return "/workers", FromWorker(ev.Worker), nil
	case engine.TaskArrive:
		return "/tasks", FromTask(ev.Task), nil
	case engine.InstantFire:
		return "/instant", Instant{At: ev.At}, nil
	}
	return "", nil, fmt.Errorf("wire: %v is not a posted event", ev.Kind)
}
