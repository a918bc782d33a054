// Package entropy computes location entropy (Section IV-B), the metric
// the EIA algorithm uses to prioritize tasks whose visitor population is
// concentrated in few workers:
//
//	s.e = − Σ_{w ∈ Ws} P_s(w) · ln P_s(w),   P_s(w) = Num_w / Num_s
//
// where Num_w counts worker w's historical visits to the task's location
// and Num_s the total visits by all workers. Low entropy means few
// workers ever visit the place, so EIA serves it first.
package entropy

import (
	"fmt"
	"math"
	"sort"

	"dita/internal/model"
)

// Table maps venues to their location entropy. Venues that were never
// visited are absent; Lookup treats them as zero entropy (the most
// urgent possible value — nobody visits them at all).
type Table struct {
	byVenue map[model.VenueID]float64
}

// Compute builds the entropy table from historical check-in records.
// The per-venue sum runs over workers in first-seen record order — never
// map iteration order — so the floating-point accumulation is bit-stable
// across runs (the repository-wide determinism contract).
func Compute(records []model.CheckIn) *Table {
	type venueStats struct {
		workerIdx map[model.WorkerID]int
		counts    []float64 // per worker, in first-seen order
		total     float64
	}
	visits := make(map[model.VenueID]*venueStats)
	venues := make([]model.VenueID, 0) // first-seen venue order
	for _, r := range records {
		vs := visits[r.Venue]
		if vs == nil {
			vs = &venueStats{workerIdx: make(map[model.WorkerID]int)}
			visits[r.Venue] = vs
			venues = append(venues, r.Venue)
		}
		i, ok := vs.workerIdx[r.User]
		if !ok {
			i = len(vs.counts)
			vs.workerIdx[r.User] = i
			vs.counts = append(vs.counts, 0)
		}
		vs.counts[i]++
		vs.total++
	}
	t := &Table{byVenue: make(map[model.VenueID]float64, len(venues))}
	for _, venue := range venues {
		vs := visits[venue]
		e := 0.0
		for _, n := range vs.counts {
			p := n / vs.total
			e -= p * math.Log(p)
		}
		t.byVenue[venue] = e
	}
	return t
}

// Lookup returns the location entropy of a venue, zero when unknown.
func (t *Table) Lookup(v model.VenueID) float64 { return t.byVenue[v] }

// Len returns the number of venues with recorded visits.
func (t *Table) Len() int { return len(t.byVenue) }

// VenueSpan returns one past the largest venue id with recorded visits
// (zero for an empty table): the venue ids the table covers are
// [0, VenueSpan), where an id without visits reads as zero entropy.
func (t *Table) VenueSpan() int {
	span := 0
	for v := range t.byVenue {
		span = max(span, int(v)+1)
	}
	return span
}

// Max returns the largest entropy in the table (zero when empty); the
// harness prints it to characterize datasets.
func (t *Table) Max() float64 {
	max := 0.0
	for _, e := range t.byVenue {
		if e > max {
			max = e
		}
	}
	return max
}

// VenueEntropy is one venue's entry in the table's serialized form.
type VenueEntropy struct {
	Venue   model.VenueID `json:"venue"`
	Entropy float64       `json:"entropy"`
}

// Wire is the table's serialized form, part of the framework artifact's
// pinned wire format (see internal/fwio). Venues are listed in
// ascending id order so the encoding is canonical: byte-identical runs
// produce byte-identical artifacts.
type Wire struct {
	Venues []VenueEntropy `json:"venues"`
}

// Wire returns the table's serialized form.
func (t *Table) Wire() Wire {
	w := Wire{Venues: make([]VenueEntropy, 0, len(t.byVenue))}
	for v, e := range t.byVenue {
		w.Venues = append(w.Venues, VenueEntropy{Venue: v, Entropy: e})
	}
	sort.Slice(w.Venues, func(i, j int) bool { return w.Venues[i].Venue < w.Venues[j].Venue })
	return w
}

// FromWire rebuilds a table from its serialized form. Venue ids must be
// strictly ascending — the canonical order Wire emits, which also rules
// out duplicate entries silently overwriting each other.
func FromWire(w Wire) (*Table, error) {
	t := &Table{byVenue: make(map[model.VenueID]float64, len(w.Venues))}
	for i, ve := range w.Venues {
		if i > 0 && ve.Venue <= w.Venues[i-1].Venue {
			return nil, fmt.Errorf("entropy: wire venues not strictly ascending at index %d (%d after %d)", i, ve.Venue, w.Venues[i-1].Venue)
		}
		t.byVenue[ve.Venue] = ve.Entropy
	}
	return t, nil
}
