package els

// This file maps every table and worked numeric exhibit of the paper, plus
// the DESIGN.md ablations, to one benchmark. Each benchmark both measures
// the harness and verifies the reproduced values, so `go test -bench=.`
// regenerates the paper's numbers. See EXPERIMENTS.md for the index.
//
// The Section 8 benchmark runs at a configurable scale: ELS_BENCH_SCALE=1
// reproduces the paper's full table sizes (‖G‖ = 100000); the default scale
// of 10 keeps `go test -bench=.` fast while preserving every qualitative
// outcome.

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"repro/internal/experiment"
	"repro/internal/selest"
)

func benchScale() int {
	if v := os.Getenv("ELS_BENCH_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 10
}

// BenchmarkTable1_Section8 regenerates the paper's Section 8 table: four
// optimizer configurations plan and execute the S/M/B/G query; the
// benchmark reports the wall-clock of each configuration's chosen plan and
// the ELS speedup, which the paper gives as 9–12x.
func BenchmarkTable1_Section8(b *testing.B) {
	scale := benchScale()
	var last *experiment.Section8Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSection8(experiment.Section8Options{Scale: scale, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last == nil {
		return
	}
	for _, row := range last.Rows {
		if float64(row.TrueCount) != last.CorrectSize {
			b.Fatalf("%s/%s computed %d rows, want %g", row.Query, row.Algorithm, row.TrueCount, last.CorrectSize)
		}
	}
	els := last.Rows[3]
	var worst float64
	for _, row := range last.Rows[:3] {
		r := float64(row.Stats.Elapsed) / float64(els.Stats.Elapsed)
		if r > worst {
			worst = r
		}
		b.ReportMetric(float64(row.Stats.TuplesScanned), "tuples/"+row.Algorithm+orPTC(row.Query))
	}
	b.ReportMetric(float64(els.Stats.TuplesScanned), "tuples/ELS")
	b.ReportMetric(worst, "x-speedup-ELS-vs-worst")
	b.Logf("\n%s", experiment.FormatSection8(last))
}

func orPTC(q string) string {
	if q == "Orig. + PTC" {
		return "+PTC"
	}
	return ""
}

// BenchmarkTable1_EstimatesOnly regenerates just the "Estimated Result
// Sizes" column of the Section 8 table at the paper's full scale (no data
// generation), asserting the exact paper values 0.2/4e-8/4e-21 (SM+PTC),
// 0.2/4e-4/4e-7 (SSS) and 100/100/100 (ELS).
func BenchmarkTable1_EstimatesOnly(b *testing.B) {
	var last *experiment.Section8Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSection8(experiment.Section8Options{Scale: 1, SkipExecution: true})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	want := map[int][]float64{
		1: {0.2, 4e-8, 4e-21},
		2: {0.2, 4e-4, 4e-7},
		3: {100, 100, 100},
	}
	for row, sizes := range want {
		for i, w := range sizes {
			got := last.Rows[row].EstimatedSizes[i]
			if math.Abs(got-w) > 1e-9*math.Abs(w) {
				b.Fatalf("row %d step %d: got %g, want %g (paper)", row, i, got, w)
			}
		}
	}
}

// benchExample1b builds the Example 1b system once per iteration and
// estimates along the R2,R3,R1 order of Examples 2 and 3.
func benchExample1b(b *testing.B, algo Algorithm, want float64) {
	b.Helper()
	sys := New()
	sys.MustDeclareStats("R1", 100, map[string]float64{"x": 10})
	sys.MustDeclareStats("R2", 1000, map[string]float64{"y": 100})
	sys.MustDeclareStats("R3", 1000, map[string]float64{"z": 1000})
	sql := "SELECT COUNT(*) FROM R1, R2, R3 WHERE x = y AND y = z"
	var got float64
	for i := 0; i < b.N; i++ {
		est, err := sys.EstimateOrder(sql, algo, []string{"R2", "R3", "R1"})
		if err != nil {
			b.Fatal(err)
		}
		got = est.FinalSize
	}
	if math.Abs(got-want) > 1e-6 {
		b.Fatalf("%s estimate = %g, want %g (paper)", algo, got, want)
	}
	b.ReportMetric(got, "estimated-rows")
}

// BenchmarkExample1b checks Equations 2 and 3 on the paper's statistics:
// the three-way chain is exactly 1000 rows.
func BenchmarkExample1b(b *testing.B) { benchExample1b(b, AlgorithmELS, 1000) }

// BenchmarkExample2_RuleM reproduces Example 2: the multiplicative rule
// estimates 1 where the correct answer is 1000.
func BenchmarkExample2_RuleM(b *testing.B) { benchExample1b(b, AlgorithmSMPTC, 1) }

// BenchmarkExample3_RuleSS reproduces the first half of Example 3: the
// smallest-selectivity rule estimates 100.
func BenchmarkExample3_RuleSS(b *testing.B) { benchExample1b(b, AlgorithmSSS, 100) }

// BenchmarkExample3_RuleLS reproduces the second half of Example 3: Rule LS
// estimates the correct 1000.
func BenchmarkExample3_RuleLS(b *testing.B) { benchExample1b(b, AlgorithmELS, 1000) }

// BenchmarkRepresentativeRule reproduces Section 3.3's argument: the
// representative-selectivity proposal gives 10000 with the larger value and
// 100 with the smaller — never the correct 1000.
func BenchmarkRepresentativeRule(b *testing.B) {
	b.Run("rep=0.01", func(b *testing.B) { benchExample1b(b, AlgorithmRepLargest, 10000) })
	b.Run("rep=0.001", func(b *testing.B) { benchExample1b(b, AlgorithmRepSmallest, 100) })
}

// BenchmarkUrnModel_Section5 reproduces the Section 5 numeric contrast:
// urn(10000, 50000) = 9933 vs the linear rule's 5000, and measures the urn
// computation itself.
func BenchmarkUrnModel_Section5(b *testing.B) {
	var urn, lin float64
	for i := 0; i < b.N; i++ {
		urn = selest.UrnDistinctCeil(10000, 50000)
		lin = selest.LinearDistinct(10000, 100000, 50000)
	}
	if urn != 9933 || lin != 5000 {
		b.Fatalf("urn = %g (want 9933), linear = %g (want 5000)", urn, lin)
	}
	b.ReportMetric(urn, "urn-distinct")
	b.ReportMetric(lin, "linear-distinct")
}

// BenchmarkSingleTableJEquiv_Section6 reproduces Section 6's worked
// numbers: ‖R2‖′ = 20 and effective join cardinality 9, via the full
// worked-examples harness.
func BenchmarkSingleTableJEquiv_Section6(b *testing.B) {
	var examples []experiment.WorkedExample
	for i := 0; i < b.N; i++ {
		var err error
		examples, err = experiment.RunWorkedExamples()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, ex := range examples {
		if ex.ID == "Section 6" && !ex.Matches() {
			b.Fatalf("%s: got %g, want %g", ex.Description, ex.Got, ex.Want)
		}
	}
}

// BenchmarkAblation_ChainLength regenerates the A1 sweep: q-error of the
// three rules versus the Equation 3 oracle as the chain grows. LS must stay
// exact; the reported metric is Rule M's q-error at the longest chain.
func BenchmarkAblation_ChainLength(b *testing.B) {
	var rows []experiment.ChainLengthRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunChainLengthSweep(6, 15, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	if last.QErrLS > 1+1e-6 {
		b.Fatalf("LS q-error %g at n=%d, want 1", last.QErrLS, last.N)
	}
	b.ReportMetric(last.QErrM, "qerr-M@n6")
	b.ReportMetric(last.QErrSS, "qerr-SS@n6")
	b.ReportMetric(last.QErrLS, "qerr-LS@n6")
	b.Logf("\n%s", experiment.FormatChainLengthSweep(rows))
}

// BenchmarkAblation_ZipfSkew regenerates the A2 sweep: ELS estimate vs
// executed truth as join-column skew grows (the paper's future-work
// relaxation of the uniformity assumption).
func BenchmarkAblation_ZipfSkew(b *testing.B) {
	var rows []experiment.ZipfRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunZipfSweep(1000, 2500, 200, []float64{0, 0.5, 1.0}, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.QError, fmt.Sprintf("qerr@theta=%.1f", r.Theta))
	}
	b.Logf("\n%s", experiment.FormatZipfSweep(rows))
}

// BenchmarkAblation_UrnVsLinear regenerates the A3 sweep: measured
// surviving-distinct counts against the urn model and the linear rule.
func BenchmarkAblation_UrnVsLinear(b *testing.B) {
	var rows []experiment.UrnRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunUrnVsLinear(50000, 5000, []float64{0.1, 0.5, 0.9}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	mid := rows[1]
	if mid.UrnQError > mid.LinearQError {
		b.Fatalf("urn q-error (%g) should not exceed linear (%g)", mid.UrnQError, mid.LinearQError)
	}
	b.ReportMetric(mid.UrnQError, "qerr-urn@keep0.5")
	b.ReportMetric(mid.LinearQError, "qerr-linear@keep0.5")
	b.Logf("\n%s", experiment.FormatUrnVsLinear(rows))
}

// BenchmarkAblation_RandomQueries regenerates the A4/A5 sweep: estimation
// q-error and realized plan work across random chain/star queries for all
// four algorithms.
func BenchmarkAblation_RandomQueries(b *testing.B) {
	var rows []experiment.RandomQueryRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunRandomQueries(15, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.GeoMeanQError, "qerr-"+r.Algorithm)
		b.ReportMetric(r.MeanWorkRatio, "work-"+r.Algorithm)
	}
	b.Logf("\n%s", experiment.FormatRandomQueries(rows))
}

// BenchmarkAblation_IndexedSection8 regenerates the A6 ablation: Section 8
// re-run with ordered indexes on every join column and index-nested-loops
// enabled. The between-algorithm work gap collapses, showing that the
// paper's order-of-magnitude penalty for bad estimates presumes an
// unforgiving access-path design.
func BenchmarkAblation_IndexedSection8(b *testing.B) {
	scale := benchScale()
	var last *experiment.Section8Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunSection8(experiment.Section8Options{
			Scale: scale, Seed: 42, WithIndexes: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	var worst, best int64
	for _, row := range last.Rows {
		if float64(row.TrueCount) != last.CorrectSize {
			b.Fatalf("%s/%s computed %d rows, want %g", row.Query, row.Algorithm, row.TrueCount, last.CorrectSize)
		}
		if worst == 0 || row.Stats.TuplesScanned > worst {
			worst = row.Stats.TuplesScanned
		}
		if best == 0 || row.Stats.TuplesScanned < best {
			best = row.Stats.TuplesScanned
		}
	}
	b.ReportMetric(float64(worst)/float64(best), "work-gap-worst/best")
	b.Logf("\n%s", experiment.FormatSection8(last))
}

// BenchmarkAblation_SampledStats regenerates the A7 ablation: how much the
// ELS estimate degrades when statistics come from sampling ANALYZE with the
// Chao distinct estimator instead of a full scan.
func BenchmarkAblation_SampledStats(b *testing.B) {
	var rows []experiment.SampledStatsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunSampledStats(8000, []int{400, 2000, 8000}, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows[1:] {
		b.ReportMetric(r.EstimateQError, fmt.Sprintf("qerr@sample%d", r.SampleRows))
	}
	b.Logf("\n%s", experiment.FormatSampledStats(rows))
}

// BenchmarkAblation_Independence regenerates the A8 ablation: two equally
// selective local predicates over independent vs perfectly correlated
// columns. The independence assumption squares the selectivity; under
// correlation the estimate undershoots quadratically.
func BenchmarkAblation_Independence(b *testing.B) {
	var rows []experiment.IndependenceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.RunIndependenceSweep(20000, 100, 0.2, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		label := "independent"
		if r.Correlated {
			label = "correlated"
		}
		b.ReportMetric(r.QError, "qerr-"+label)
	}
	b.Logf("\n%s", experiment.FormatIndependenceSweep(rows))
}

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
