// Package harness holds the benchmark's measurement machinery: the
// percentile rule, the in-memory span recorder and self-time derivation,
// the groupings comparator, the open-loop querier and the process resource
// readings. The workloads in the parent package wire it to STIR's layers.
package harness

import (
	"math"
	"sort"
)

// MinTail is how many samples must lie beyond a percentile before it is
// reported: a p90 needs at least 100 samples, a p99 at least 1000.
const MinTail = 10

// Percentiles is the ladder reports climb, lowest first.
var Percentiles = []float64{50, 90, 99, 99.9}

// supports reports whether n samples support percentile p under the
// MinTail rule.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= MinTail-1e-9
}

// HighestSupported returns the highest percentile of the ladder that n
// samples support, or 0 when they support none.
func HighestSupported(n int, ladder []float64) float64 {
	best := 0.0
	for _, p := range ladder {
		if supports(n, p) && p > best {
			best = p
		}
	}
	return best
}

// Percentile returns the nearest-rank percentile p (0 < p <= 100) of xs.
// xs need not be sorted; it is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Max returns the largest of xs (0 for none).
func Max(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
