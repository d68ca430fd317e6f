package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// median returns the middle of xs (the mean of the middle two for an
// even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs. It fails
// unless at least minBeyond samples lie strictly above the rank, so a
// p99 needs 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
