package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank pth percentile (0 < p <= 100) of
// vals, or 0 for an empty slice. vals is not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the midpoint of vals (mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
