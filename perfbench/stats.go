package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile for
// it to be reported: fewer, and the value is a single slow outlier.
const minBeyond = 10

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the nearest-rank q-quantile of xs. ok reports
// whether at least minBeyond samples lie above it; callers print the
// value only then.
func tailPercentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
