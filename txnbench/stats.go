package main

import (
	"slices"
	"time"
)

// percentile returns the nearest-rank p-th percentile (1 <= p <= 100)
// of sorted: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for no samples.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank returns the 1-based rank of the p-th percentile of n > 0
// samples. Integer arithmetic keeps it exact: float p/100*n rounds
// 0.99*1000 up to rank 991.
func rank(n, p int) int { return max(1, min((p*n+99)/100, n)) }

// beyond returns how many of n samples lie above the p-th percentile's
// rank. A percentile is reported only when at least minBeyond samples
// lie beyond it; fewer make the tail a handful of outliers.
func beyond(n, p int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// minBeyond is the fewest samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, returning 0 for a zero denominator: a per-commit or
// per-grant figure is 0 when the layer did no work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
