package main

import (
	"math"
	"sort"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples rests on two observations and says
// little, so the tail drops to the highest percentile that keeps ten
// samples above it.
const tailMin = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is one tail-latency figure with the percentile it was taken
// at and the sample count behind it.
type tailStat struct {
	Value float64 // the sample at percentile Q
	Q     float64 // the percentile actually used, in (0, 1]
	N     int     // sample count
}

// tail applies the percentile rule: the nearest-rank quantile at target
// (0.99 for a p99), lowered to the highest percentile that still leaves
// tailMin samples beyond it. With fewer than tailMin+1 samples no such
// percentile exists and the median stands in (Q = 0.5).
func tail(xs []float64, target float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	if n <= tailMin {
		return tailStat{Value: median(xs), Q: 0.5, N: n}
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(target*float64(n))) - 1 // nearest rank, 0-based
	if k > n-1-tailMin {
		k = n - 1 - tailMin
	}
	if k < 0 {
		k = 0
	}
	return tailStat{Value: s[k], Q: float64(k+1) / float64(n), N: n}
}

// ratio is num/den with an empty base reading 0: a layer that did no
// lookups reports a hit ratio of 0, never NaN, so "no work" and "all
// misses" are told apart by the count metrics beside it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
