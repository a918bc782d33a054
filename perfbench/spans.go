package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"time"
)

// span is one traced interval: a call into a layer made by the
// benchmark, a request to dita-serve, or a phase a layer reported for
// itself (an instant's prepare/pair-maintenance/solve times, placed
// back to back inside the call that reported them). Its layer is the
// name up to the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Req is the request (or in-process event) index the span belongs
	// to; -1 when it belongs to none.
	Req int `json:"req"`
}

// recorder keeps a traced run's spans in memory until the run ends. A
// nil recorder records nothing, so the timed runs pay a nil check per
// call site and nothing else.
type recorder struct {
	clock func() time.Duration
	spans []span
}

// root is the id of the run's root span; begin it first.
const root = 0

func (r *recorder) begin(parent int, name string, req int) int {
	if r == nil {
		return -1
	}
	now := int64(r.clock())
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: now, End: now, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(r.clock())
}

// add records a span whose bounds are already known.
func (r *recorder) add(parent int, name string, req int, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: int64(start), End: int64(end), Req: req})
	return len(r.spans) - 1
}

// phases records reported phase durations as consecutive child spans
// of parent starting at its start: the reporter gives durations, not
// positions, and only durations enter the self-time table.
func (r *recorder) phases(parent, req int, names []string, durs []time.Duration) {
	if r == nil {
		return
	}
	at := time.Duration(r.spans[parent].Start)
	for i, d := range durs {
		r.add(parent, names[i], req, at, at+d)
		at += d
	}
}

// layerOf maps a span name to its layer; the undotted root span's self
// time is the run's unattributed time.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "unattributed"
}

// selfTimes sums each layer's self time: a span's duration minus the
// durations of its direct children. Every non-root span's duration is
// added once (as its own) and subtracted once (from its parent), so the
// rows sum exactly to the root span's duration — the run's wall time.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// layerOrder is the self-time table's row order: offline layers, online
// layers, the serving front-end, the benchmark's own driving and
// checking code, and the remainder.
var layerOrder = []string{
	"dataset", "lda", "mobility", "entropy", "rrr", "core", "fwio",
	"engine", "influence", "assign", "dita-serve", "loadgen", "verify", "unattributed",
}

// writeSelfTable prints the per-layer self-time table; its rows sum to
// the wall time printed in the total row.
func (r *recorder) writeSelfTable(w io.Writer, title string) {
	self := r.selfTimes()
	wall := time.Duration(r.spans[root].End - r.spans[root].Start)
	fmt.Fprintf(w, "self time by layer — %s\n", title)
	fmt.Fprintf(w, "  %-14s %10s %7s\n", "layer", "self_s", "share")
	var sum time.Duration
	for _, l := range layerOrder {
		d, ok := self[l]
		if !ok {
			continue
		}
		sum += d
		fmt.Fprintf(w, "  %-14s %10.4f %6.1f%%\n", l, d.Seconds(), 100*d.Seconds()/wall.Seconds())
		delete(self, l)
	}
	for _, l := range slices.Sorted(maps.Keys(self)) { // layers outside layerOrder (none today)
		sum += self[l]
		fmt.Fprintf(w, "  %-14s %10.4f %6.1f%%\n", l, self[l].Seconds(), 100*self[l].Seconds()/wall.Seconds())
	}
	fmt.Fprintf(w, "  %-14s %10.4f (wall %.4f s)\n", "total", sum.Seconds(), wall.Seconds())
}

// writeSpans writes every span as one JSON line, once, at the end of
// the run.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
