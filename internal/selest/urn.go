// Package selest implements the selectivity machinery of Algorithm ELS:
// local-predicate selectivities (with or without distribution statistics),
// the resolution of multiple local predicates on one column (per the
// companion report RJ 9569 cited as [16]), the urn-model estimate of
// distinct values surviving a selection (Section 5), and the single-table
// j-equivalent column reduction (Section 6).
package selest

import "math"

// UrnDistinct returns the expected number of distinct values remaining in a
// column of d distinct values after k rows are selected, under the urn
// model of Section 5: throwing k balls uniformly into d urns leaves
// d·(1−(1−1/d)^k) urns non-empty. The paper rounds up; we return the raw
// expectation and let callers apply Ceil (the worked numbers in the paper
// use the ceiling).
//
// Numerical care: (1−1/d)^k is computed as exp(k·log1p(−1/d)) so that large
// d and k do not lose precision.
func UrnDistinct(d, k float64) float64 {
	if d <= 0 || k <= 0 {
		return 0
	}
	if d == 1 {
		return 1
	}
	if math.IsInf(k, 1) {
		return d
	}
	p := math.Exp(k * math.Log1p(-1/d))
	out := d * (1 - p)
	if out > d {
		out = d
	}
	if out > k {
		out = k // cannot see more distinct values than rows
	}
	return out
}

// UrnDistinctCeil is the ceiling of UrnDistinct, matching the paper's
// ⌈d·(1−(1−1/d)^k)⌉ exactly (Section 5 and Section 6 formulas).
func UrnDistinctCeil(d, k float64) float64 {
	v := UrnDistinct(d, k)
	if v <= 0 {
		return 0
	}
	return math.Ceil(v)
}

// LinearDistinct is the "other common estimate" the paper contrasts the urn
// model with: d′ = d·(k/n), the distinct count scaled by the fraction of
// rows kept. The estimator never uses it; the urn-vs-linear ablation (A3)
// does. n is the original row count and k the surviving row count.
func LinearDistinct(d, n, k float64) float64 {
	if n <= 0 || d <= 0 || k <= 0 {
		return 0
	}
	out := d * k / n
	if out > d {
		out = d
	}
	if out < 1 {
		out = 1
	}
	return out
}

// ReduceDistinct applies the urn model to a column shrunk by predicates on
// other columns: given a column with d distinct values in a table of n
// rows, of which k survive selection, it returns the estimated surviving
// distinct count (ceiling applied, capped at both d and k, floor of 0).
func ReduceDistinct(d, n, k float64) float64 {
	if k <= 0 || d <= 0 {
		return 0
	}
	if k >= n {
		return d
	}
	v := math.Ceil(UrnDistinct(d, k))
	if v > d {
		v = d
	}
	if v > k {
		v = math.Ceil(k)
	}
	if v < 1 {
		v = 1
	}
	return v
}
