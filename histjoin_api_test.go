package els

import (
	"math"
	"testing"
)

// AlgorithmELSHist uses histograms to relax the uniformity assumption for
// join columns: on skewed data its estimate must beat plain ELS; on tables
// without histograms it must fall back to the plain ELS estimate.
func TestAlgorithmELSHist(t *testing.T) {
	sys := New()
	// Two skewed tables: 90% of the join key mass on value 0.
	mk := func(n int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			v := int64(0)
			if i%10 == 9 {
				v = int64(1 + i%50)
			}
			rows[i] = []int64{v}
		}
		return rows
	}
	if err := sys.LoadTableHist("A", []string{"k"}, mk(1000), 32); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTableHist("B", []string{"k"}, mk(600), 32); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) FROM A, B WHERE A.k = B.k"
	truth, err := sys.Query(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := sys.Estimate(sql, AlgorithmELSHist)
	if err != nil {
		t.Fatal(err)
	}
	tc := float64(truth.Count)
	qe := func(est float64) float64 { return math.Max(est/tc, tc/est) }
	if qe(hist.FinalSize) >= qe(plain.FinalSize) {
		t.Errorf("hist q-error %.3f should beat plain %.3f (truth %g, hist %g, plain %g)",
			qe(hist.FinalSize), qe(plain.FinalSize), tc, hist.FinalSize, plain.FinalSize)
	}
	if qe(hist.FinalSize) > 1.5 {
		t.Errorf("hist estimate %g too far from truth %g", hist.FinalSize, tc)
	}

	// Without histograms the two algorithms agree (graceful fallback).
	sys2 := New()
	sys2.MustDeclareStats("A", 1000, map[string]float64{"k": 50})
	sys2.MustDeclareStats("B", 600, map[string]float64{"k": 50})
	p2, err := sys2.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := sys2.Estimate(sql, AlgorithmELSHist)
	if err != nil {
		t.Fatal(err)
	}
	if p2.FinalSize != h2.FinalSize {
		t.Errorf("without histograms, ELS+hist (%g) must equal ELS (%g)", h2.FinalSize, p2.FinalSize)
	}
}

// A histogram prices a range predicate on a column of consecutive integers
// exactly, at a bucket's bounds too: over v = 0..999 in 10 buckets the
// estimates are the true row counts.
func TestHistogramRangeEstimatesOnDenseIntegers(t *testing.T) {
	sys := New()
	rows := make([][]int64, 1000)
	for i := range rows {
		rows[i] = []int64{int64(i)}
	}
	if err := sys.LoadTableHist("T", []string{"v"}, rows, 10); err != nil {
		t.Fatal(err)
	}
	for where, want := range map[string]float64{
		"v >= 999": 1, "v > 998": 1, "v <= 99": 100, "v > 99": 900, "v < 100": 100, "v >= 100": 900,
	} {
		est, err := sys.Estimate("SELECT COUNT(*) FROM T WHERE "+where, AlgorithmELS)
		if err != nil {
			t.Fatal(err)
		}
		if est.FinalSize != want {
			t.Errorf("%s: estimate %g, want %g", where, est.FinalSize, want)
		}
	}
}
