package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// ramp returns the sorted samples 1, 2, ..., n.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailUsesP99WithTenSamplesBeyond(t *testing.T) {
	// 1000 samples: rank 990 leaves exactly 10 above it.
	pm, v := tail(ramp(1000))
	if pm != 990 || v != 990 {
		t.Fatalf("tail(1000) = p%g %v, want p99 990", float64(pm)/10, v)
	}
}

func TestTailFallsBackBelowTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantPm int
		wantV  float64
	}{
		{999, 950, 950}, // p99 leaves 9 above; p95 (rank 950) leaves 49
		{642, 950, 610}, // p99 leaves 6 above; p95 is rank ceil(609.9) = 610
		{100, 900, 90},  // p95 leaves 5 above; p90 leaves exactly 10
		{40, 750, 30},   // p90 leaves 4 above; p75 leaves exactly 10
		{15, 500, 8},    // no rung leaves 10 above: the median
		{1, 500, 1},     // a single sample
		{2000, 990, 1980},
	} {
		pm, v := tail(ramp(tc.n))
		if pm != tc.wantPm || v != tc.wantV {
			t.Errorf("tail(%d) = p%g %v, want p%g %v", tc.n, float64(pm)/10, v, float64(tc.wantPm)/10, tc.wantV)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	if got := percentile(s, 500); got != 20 {
		t.Fatalf("p50 of 4 = %v, want 20 (rank 2)", got)
	}
	if got := percentile(s, 990); got != 40 {
		t.Fatalf("p99 of 4 = %v, want 40", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestTrimmedMeanDropsTheExtremeFifths(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1.0, 1.2, 1.0, 9, 0.1}, (1.0 + 1.0 + 1.2) / 3},
		{[]float64{4, 2}, 3}, // fewer than five: nothing dropped
		{[]float64{7}, 7},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5.5}, // drops 1, 2 and 9, 10
	} {
		if got := trimmedMean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("trimmedMean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestTallyCountsShedTimeoutAndQuarantine(t *testing.T) {
	var tl tally
	tl.request(http.StatusOK, nil)
	tl.request(http.StatusOK, nil)
	tl.request(http.StatusServiceUnavailable, nil)            // shed
	tl.request(0, context.DeadlineExceeded)                   // client timeout
	tl.request(http.StatusUnprocessableEntity, nil)           // quarantined week
	tl.request(http.StatusOK, errors.New("connection reset")) // body read failed
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("requests: %d attempted, %d failed; want 6, 4", tl.attempted, tl.failed)
	}
	if got := tl.frac(); got != 4.0/6 {
		t.Fatalf("fail_frac = %v, want 4/6", got)
	}

	var wk tally
	wk.weeks(17, 0)
	wk.weeks(17, 2)
	if wk.attempted != 34 || wk.failed != 2 || wk.frac() != 2.0/34 {
		t.Fatalf("weeks: %+v frac %v, want 34 attempted, 2 failed", wk, wk.frac())
	}
	var none tally
	if none.frac() != 0 {
		t.Fatalf("empty tally frac = %v, want 0", none.frac())
	}
}

func TestFailedRequestsMissTheRate(t *testing.T) {
	samples := []sample{{weekKind, 2}, {weekKind, 3}, {linksKind, millis(clientTimeout)}, {churnKind, 40}}
	if got := okPerSecond(samples, 2*time.Second); got != 1.5 {
		t.Fatalf("okPerSecond = %v, want 3 successes / 2 s", got)
	}
	// A failure sorts above every success, so it lands in the tail.
	lat := latencies(samples, -1)
	if lat[len(lat)-1] != millis(clientTimeout) {
		t.Fatalf("failed request not last in %v", lat)
	}
}

func TestRequestSequenceMixAndSeed(t *testing.T) {
	weeks := []int{35, 36, 37}
	seq := requestSequence(7, weeks, 1000)
	counts := make([]int, len(mix))
	for _, q := range seq {
		counts[q.kind]++
		if q.kind == churnKind && q.week != 0 || q.kind != churnKind && (q.week < 35 || q.week > 37) {
			t.Fatalf("bad request %+v", q)
		}
	}
	for kind, c := range counts {
		if c != 10*mix[kind] {
			t.Errorf("%s: %d of 1000, want %d", endpoints[kind], c, 10*mix[kind])
		}
	}
	if !reflect.DeepEqual(seq, requestSequence(7, weeks, 1000)) {
		t.Fatal("same seed, different sequence")
	}
	if reflect.DeepEqual(seq, requestSequence(8, weeks, 1000)) {
		t.Fatal("different seeds, same sequence")
	}
}
