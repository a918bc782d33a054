package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strings"
	"time"

	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/trace"
	"dita/internal/wire"
)

// runServe is -stream -serve: it builds the -stream trace and posts its
// grid schedule to the dita-serve region at base, then prints the
// region's totals. The server must run -trigger manual so the posted
// instants are the only ones; it then mints the same platform ids as the
// in-process replay, and its drained CSV equals -assign-csv's.
func runServe(base string, data *dataset.Data, p streamParams) error {
	ws, ts, err := trace.Build(data, p.trace)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	sched, err := p.grid.Schedule(ws, ts)
	if err != nil {
		return err
	}
	base = strings.TrimRight(base, "/")
	wall := time.Now() //dita:wallclock
	posted, err := postSchedule(http.DefaultClient, base, sched)
	if err != nil {
		return err
	}
	elapsed := time.Since(wall) //dita:wallclock

	// The part of dita-serve's metrics reply the summary reads.
	var m struct {
		Online int           `json:"online"`
		Open   int           `json:"open"`
		Totals engine.Totals `json:"totals"`
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	if err := decodeReply(resp, "GET /metrics", &m); err != nil {
		return err
	}
	fmt.Printf("\nposted to %s over [%g, %g]h in %g-h instants (%d arrivals each side, %d requests):\n",
		base, p.grid.Start, p.grid.Start+p.grid.Horizon, p.grid.Step, p.trace.Arrivals, posted)
	fmt.Printf("  instants             %d\n", m.Totals.Instants)
	fmt.Printf("  assigned tasks       %d\n", m.Totals.Assigned)
	fmt.Printf("  expired tasks        %d\n", m.Totals.Expired)
	fmt.Printf("  still online/open    %d/%d\n", m.Online, m.Open)
	fmt.Printf("  replay wall time     %s\n", elapsed.Round(time.Millisecond))
	return nil
}

// postSchedule posts every event of sched, in order, to its endpoint
// under base and returns how many were accepted. The first reply that
// is not 200 aborts the replay: later events would be admitted against
// a state the schedule no longer describes.
func postSchedule(client *http.Client, base string, sched iter.Seq[engine.Event]) (int, error) {
	posted := 0
	for ev := range sched {
		path, body, err := wire.Post(ev)
		if err != nil {
			return posted, err
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return posted, err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return posted, err
		}
		if err := decodeReply(resp, "POST "+path, nil); err != nil {
			return posted, err
		}
		posted++
	}
	return posted, nil
}

// decodeReply closes resp after decoding its JSON body into out (or
// discarding it when out is nil); a status other than 200 is an error
// carrying the status and the start of the body.
func decodeReply(resp *http.Response, what string, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", what, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
