package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return float64(xs[rank-1])
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which the acceptance check uses. xs needs at
// least two values; it is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the median of xs (0 for none); xs is not modified.
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

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// failFrac is the share of attempted operations that failed.
func failFrac(failed, attempted int) float64 {
	return ratio(float64(failed), float64(attempted))
}

// selfTime is an outer call's time minus the separately timed inner
// calls made on the same query: the part of the outer layer that the
// benchmark cannot time from outside any finer.
func selfTime(outer float64, inner ...float64) float64 {
	for _, x := range inner {
		outer -= x
	}
	return outer
}
