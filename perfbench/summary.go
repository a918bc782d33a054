package main

import (
	"slices"
	"time"

	"dita/internal/engine"
)

// keptFailures is how many failing response bodies a run keeps.
const keptFailures = 5

// httpSummary condenses a replay's samples into the figures the run
// reports. Latencies are in milliseconds.
type httpSummary struct {
	attempted, failed, non2xx int
	failures                  []string
	// wall runs from the first send to the last response.
	wall       time.Duration
	throughput float64 // completed requests per second of wall
	// ingest holds arrivals that ran no instant, instant the requests
	// that did, both timed from their due time.
	ingest, instant []float64
	// workerPost and taskPost are send→response times of arrivals that
	// ran no instant; overhead is an instant request's send→response
	// time minus the phases the instant reported.
	workerPost, taskPost, overhead []float64
	// serverSum totals every reported instant phase.
	serverSum time.Duration
	// late is how far behind its schedule the sender issued each
	// request (all zero in a closed loop).
	late []float64
}

// summarize splits samples into the ingest and instant populations. In
// the open loop the instants are the arrivals whose response carries an
// inline instant; the closing /instant only drains the tail of the
// trace. In the closed loop they are the explicit /instant requests
// that had arrivals since the previous instant: the grid outlasts the
// arrival window, and its trailing instants find empty queues, so
// counting them would put the median on the boundary between two
// populations.
func summarize(samples []sample, open bool) *httpSummary {
	s := &httpSummary{attempted: len(samples)}
	if len(samples) == 0 {
		return s
	}
	completed, arrived := 0, 0
	for _, x := range samples {
		idle := x.kind == engine.InstantFire && (open || arrived == 0)
		if x.kind == engine.InstantFire {
			arrived = 0
		} else {
			arrived++
		}
		s.late = append(s.late, ms(x.sent-x.due))
		if !x.ok {
			s.failed++
			if x.status != 0 && (x.status < 200 || x.status > 299) {
				s.non2xx++
			}
			if len(s.failures) < keptFailures {
				s.failures = append(s.failures, x.fail)
			}
			continue
		}
		completed++
		if x.inst != nil {
			s.serverSum += x.inst.serverTime()
		}
		switch {
		case idle:
		case x.inst != nil:
			s.instant = append(s.instant, ms(x.done-x.due))
			s.overhead = append(s.overhead, ms(x.done-x.sent-x.inst.serverTime()))
		default:
			s.ingest = append(s.ingest, ms(x.done-x.due))
			if x.kind == engine.WorkerArrive {
				s.workerPost = append(s.workerPost, ms(x.done-x.sent))
			} else {
				s.taskPost = append(s.taskPost, ms(x.done-x.sent))
			}
		}
	}
	s.wall = samples[len(samples)-1].done - samples[0].sent
	if s.wall > 0 {
		s.throughput = float64(completed) / s.wall.Seconds()
	}
	return s
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}
