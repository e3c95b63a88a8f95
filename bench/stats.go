package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. sorted must be ascending; an empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of vals.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of vals (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// quartiles returns the first quartile, median and third quartile of vals
// by the rule Python's statistics.quantiles(values, n=4) uses (the
// "exclusive" method: position q·(n+1), linear interpolation, extrapolating
// at the ends of a short sample), so spreads computed here match the ones
// the acceptance driver computes. Fewer than two samples yield the sample
// itself three times (0 for none).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// sample is one reported figure: the value plus the quartiles of the
// per-repeat values it was reduced from, so -compare can tell a shift from
// noise.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// medianSample reduces per-repeat values to their median with quartiles.
func medianSample(vals []float64, unit string) sample {
	q1, q2, q3 := quartiles(vals)
	return sample{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(vals)}
}

// qerror is max(est/actual, actual/est), with both sides floored at one row
// so an exact zero on either side stays finite.
func qerror(est, actual float64) float64 {
	est, actual = math.Max(est, 1), math.Max(actual, 1)
	return math.Max(est/actual, actual/est)
}
