package main

import (
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as the tail latency.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles, highest first, in
// tenths of a percent (integers keep the rank arithmetic exact).
var tailLadder = []int{990, 950, 900, 750, 500}

// rank returns the 1-based nearest-rank position of the permille-th
// percentile among n sorted samples.
func rank(permille, n int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile (in permille) of
// sorted, which must be non-empty.
func percentile(sorted []float64, permille int) float64 {
	return sorted[rank(permille, len(sorted))-1]
}

// tail returns the highest percentile on tailLadder with at least
// minBeyond samples above it, and its value. With too few samples for
// any rung it falls back to the median.
func tail(sorted []float64) (permille int, v float64) {
	n := len(sorted)
	for _, pm := range tailLadder {
		if n-rank(pm, n) >= minBeyond {
			return pm, sorted[rank(pm, n)-1]
		}
	}
	return 500, percentile(sorted, 500)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean averages a non-empty sample after dropping its lowest and
// highest fifth. Where a sample has two modes (two clients' /churn
// requests overlapping in some repetitions and not in others, or a cold
// campaign's collections falling before or after its heap peak), the
// average moves by the share of each mode while a median jumps between
// them; dropping the extremes keeps one stall from moving it.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	k := len(s) / 5
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts attempted and failed operations: HTTP requests for the
// serve workloads, weeks for the campaign.
type tally struct {
	attempted, failed int
}

// request records one HTTP exchange. A transport error (a client
// timeout included) or any status but 200 (a 503 shed included) is a
// failure.
func (t *tally) request(status int, err error) {
	t.attempted++
	if err != nil || status != 200 {
		t.failed++
	}
}

// weeks records a campaign run: every week is attempted and each
// quarantined week failed.
func (t *tally) weeks(total, quarantined int) {
	t.attempted += total
	t.failed += quarantined
}

// frac is the failed share of attempts (0 when nothing was attempted).
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
