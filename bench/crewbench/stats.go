package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// must be sorted ascending. An empty slice has no percentile: NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of xs (mean of the two middle values for an
// even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOf reduces one figure per segment to the run's figure: the median
// over segments, so one disturbed segment does not move the result.
func medianOf(segs []segment, f func(*segment) float64) float64 {
	xs := make([]float64, len(segs))
	for i := range segs {
		xs[i] = f(&segs[i])
	}
	return median(xs)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method), which is what the
// acceptance check computes over ten runs.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}
