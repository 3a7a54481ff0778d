package main

import (
	"sort"

	"bcl/internal/sim"
)

// quantile returns the q-quantile of sorted by the nearest-rank rule
// (the smallest value with at least q of the samples at or below it),
// so the result is always one of the measured values. Empty input
// yields 0.
func quantile[T int64 | float64](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(q*float64(n)+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// sortedCopy leaves the caller's slice (the digest input, in
// completion order) untouched.
func sortedCopy[T int64 | float64](v []T) []T {
	s := append([]T(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// usOf converts virtual nanoseconds to microseconds.
func usOf(t sim.Time) float64 { return float64(t) / 1000 }

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}
