package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The tail is the target percentile only when at least ten samples lie
// beyond it; otherwise the highest percentile that keeps ten beyond.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		target float64
		value  float64 // samples are 1..n
		q      float64
	}{
		{2000, 0.99, 1980, 0.99}, // 20 beyond p99
		{1000, 0.99, 990, 0.99},  // exactly 10 beyond
		{999, 0.99, 989, 989.0 / 999},
		{500, 0.99, 490, 0.98},
		{100, 0.99, 90, 0.90},
		{11, 0.99, 1, 1.0 / 11},
	} {
		got := tail(seq(c.n), c.target)
		if got.Value != c.value || math.Abs(got.Q-c.q) > 1e-12 || got.N != c.n {
			t.Errorf("n=%d: tail = %+v, want value %v at q %v", c.n, got, c.value, c.q)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < tailMin {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

// Too few samples for any tail: the median stands in, and says so.
func TestTailFallsBackToMedian(t *testing.T) {
	got := tail([]float64{5, 1, 4, 2, 3}, 0.99)
	if got.Value != 3 || got.Q != 0.5 || got.N != 5 {
		t.Errorf("tail of 5 samples = %+v, want the median 3 at q 0.5", got)
	}
	if got := tail(nil, 0.99); got != (tailStat{}) {
		t.Errorf("tail of nothing = %+v, want zero", got)
	}
}

func TestRatioEmptyBase(t *testing.T) {
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}
