package main

import (
	"fmt"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a latency distribution's tail summary: the highest percentile
// (in tenths of a percent, capped at 99.9) that still has at least
// minBeyond samples strictly above its nearest-rank position, and the
// sample at that rank.
type tail struct {
	// Tenths is the percentile in tenths of a percent (999 = p99.9).
	Tenths int
	// N is the sample count the percentile was taken over.
	N int
	// Value is the nearest-rank sample at the percentile.
	Value float64
}

// minBeyond is how many samples a reported tail percentile must have
// above it, so that the figure rests on more than one or two outliers.
const minBeyond = 10

// tailOf applies the tail rule to xs. With p in tenths of a percent, the
// nearest rank is ceil(p·n/1000), and the samples beyond it number
// n − rank; the largest p with n − rank ≥ minBeyond is
// floor(1000·(n − minBeyond)/n). ok is false when fewer than
// minBeyond+1 samples exist, since then no percentile qualifies.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return tail{N: n}, false
	}
	p := 1000 * (n - minBeyond) / n
	p = min(p, 999)
	rank := (p*n + 999) / 1000 // ≥ 1, since p ≥ 1000/(minBeyond+1)
	s := slices.Clone(xs)
	slices.Sort(s)
	return tail{Tenths: p, N: n, Value: s[rank-1]}, true
}

// String renders the percentile as "p99.9 of n=16000".
func (t tail) String() string {
	return fmt.Sprintf("p%d.%d of n=%d", t.Tenths/10, t.Tenths%10, t.N)
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
