package catalog

import (
	"math"
	"math/rand"
	"sort"
)

// chaoEstimate extrapolates the number of distinct values in the full
// population from sample value frequencies. When the sample covers the
// whole table the sample distinct count is exact; otherwise Chao1:
// d̂ = d_obs + f₁²/(2·f₂), capped by what the population can hold.
func chaoEstimate(freq map[string]int, sampleSize, population int) float64 {
	dObs := float64(len(freq))
	if sampleSize >= population {
		return dObs
	}
	var f1, f2 float64
	for _, c := range freq {
		switch c {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	var est float64
	switch {
	case f1 == 0:
		est = dObs
	case f2 == 0:
		// Chao's bias-corrected fallback when no value appears exactly twice.
		est = dObs + f1*(f1-1)/2
	default:
		est = dObs + f1*f1/(2*f2)
	}
	if est > float64(population) {
		est = float64(population)
	}
	if est < dObs {
		est = dObs
	}
	return math.Round(est)
}

// reservoir returns k uniformly sampled row indices from [0, n) (all of
// them when k >= n), in ascending order for cache-friendly access.
func reservoir(n, k int, seed int64) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			out[j] = i
		}
	}
	// Ascending order (reordering does not bias uniformity).
	sort.Ints(out)
	return out
}
