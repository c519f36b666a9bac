package main

import (
	"fmt"
	"sort"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks (0 for an empty slice).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// tailOf reports the highest percentile of the ladder that still has at
// least ten samples beyond it, and which one that was. With fewer than
// twenty samples no percentile qualifies and the maximum is reported.
func tailOf(xs []float64) (float64, string) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, "none"
	}
	ladder := []float64{0.999, 0.99, 0.95, 0.9, 0.5}
	for _, p := range ladder {
		if float64(len(s))*(1-p) >= 10 {
			return quantile(s, p), fmt.Sprintf("p%g", p*100)
		}
	}
	return s[len(s)-1], "max"
}

// spread is the run's own noise estimate over its per-round rates: the
// interquartile range as a share of the median, or the full range when
// there are too few rounds for quartiles.
func spread(xs []float64) float64 {
	s := sorted(xs)
	if len(s) < 2 {
		return 0
	}
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / m
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
