package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN for an empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the benchmark's spread bounds are checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	// Python's cut point i of 4 over m = n+1 ranks: rank j = i·m/4 clamped
	// to [1, n-1], then an exact-integer interpolation weight that may
	// extrapolate past the clamped pair for very small n.
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// tailLadder is the set of percentiles a timing distribution may report
// as its tail, from most to least extreme.
var tailLadder = []float64{99.99, 99.9, 99, 98, 95, 90}

// tailPercentile returns the highest percentile on tailLadder that has at
// least ten samples beyond it among n samples, and false when even the
// 90th percentile has fewer than ten (n < 100).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// The tolerance absorbs the rounding of 100-p (99.9 is inexact).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}
