package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by
// linear interpolation between closest ranks, the rule numpy and
// Python's statistics.quantiles(method="inclusive") use. It returns NaN
// for an empty sample and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio returns num/den, or 0 when den is 0: every ratio the benchmark
// reports is a share of attempts, and no attempts means no share.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// durationsIn converts durations to floats in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
