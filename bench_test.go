package els

// Micro-benchmarks of the public estimate path. The paper's exhibits are
// printed by cmd/elsbench (EXPERIMENTS.md is its output) and asserted by
// the tests of internal/experiment; the end-to-end benchmark is bench/.

import "testing"

// BenchmarkEstimatorThroughput measures the steady-state cost of one full
// incremental estimation (preliminary phase included), the operation a
// query optimizer performs per candidate plan prefix.
func BenchmarkEstimatorThroughput(b *testing.B) {
	sys := New()
	sys.MustDeclareStats("S", 1000, map[string]float64{"s": 1000})
	sys.MustDeclareStats("M", 10000, map[string]float64{"m": 10000})
	sys.MustDeclareStats("B", 50000, map[string]float64{"b": 50000})
	sys.MustDeclareStats("G", 100000, map[string]float64{"g": 100000})
	sql := "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateHot is one System.Estimate of a statement whose plan is
// cached and whose text has been seen: admission, a governor, the text
// lookup and a copy of the cached estimate — no lexing, parsing, binding
// or canonicalising.
func BenchmarkEstimateHot(b *testing.B) {
	sys := hotEstimateSystem()
	if _, err := sys.Estimate(hotEstimateSQL, AlgorithmELS); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Estimate(hotEstimateSQL, AlgorithmELS); err != nil {
			b.Fatal(err)
		}
	}
}
