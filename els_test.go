package els

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// paperSystem declares the Example 1b statistics.
func paperSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	sys.MustDeclareStats("R1", 100, map[string]float64{"x": 10})
	sys.MustDeclareStats("R2", 1000, map[string]float64{"y": 100})
	sys.MustDeclareStats("R3", 1000, map[string]float64{"z": 1000})
	return sys
}

const example1bSQL = "SELECT COUNT(*) FROM R1, R2, R3 WHERE x = y AND y = z"

func TestAlgorithmStrings(t *testing.T) {
	names := map[Algorithm]string{
		AlgorithmELS:         "ELS",
		AlgorithmSM:          "SM",
		AlgorithmSMPTC:       "SM+PTC",
		AlgorithmSSS:         "SSS+PTC",
		AlgorithmRepSmallest: "REP(smallest)",
		AlgorithmRepLargest:  "REP(largest)",
		AlgorithmELSHist:     "ELS+hist",
		Algorithm(99):        "unknown",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
	if len(Algorithms()) != 7 {
		t.Errorf("Algorithms() = %v", Algorithms())
	}
}

// ParseAlgorithm inverts String on every algorithm, in any case; no name is
// ELS; an unknown name (including String's own "unknown") is a parse error.
func TestParseAlgorithmInvertsString(t *testing.T) {
	for _, a := range Algorithms() {
		for _, name := range []string{a.String(), strings.ToLower(a.String()), strings.ToUpper(a.String())} {
			if got, err := ParseAlgorithm(name); err != nil || got != a {
				t.Errorf("ParseAlgorithm(%q) = %v, %v, want %v", name, got, err, a)
			}
		}
		if _, err := a.config(); err != nil {
			t.Errorf("%v has no estimator configuration: %v", a, err)
		}
	}
	if got, err := ParseAlgorithm(""); err != nil || got != AlgorithmELS {
		t.Errorf("ParseAlgorithm(\"\") = %v, %v, want ELS", got, err)
	}
	for _, name := range []string{"unknown", "EL", "ELS "} {
		if _, err := ParseAlgorithm(name); !errors.Is(err, ErrParse) {
			t.Errorf("ParseAlgorithm(%q) = %v, want ErrParse", name, err)
		}
	}
	if _, err := Algorithm(99).config(); !errors.Is(err, ErrParse) {
		t.Errorf("Algorithm(99).config() = %v, want ErrParse", err)
	}
}

func TestDeclareStatsValidation(t *testing.T) {
	sys := New()
	if err := sys.DeclareStats("", 10, nil); err == nil {
		t.Error("empty name should error")
	}
	if err := sys.DeclareStats("t", -1, nil); err == nil {
		t.Error("negative rows should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDeclareStats should panic on error")
		}
	}()
	sys.MustDeclareStats("", 1, nil)
}

func TestStatsAccessors(t *testing.T) {
	sys := paperSystem(t)
	if got := sys.Tables(); len(got) != 3 || got[0] != "R1" {
		t.Errorf("Tables = %v", got)
	}
	card, err := sys.TableCard("R2")
	if err != nil || card != 1000 {
		t.Errorf("TableCard = %g, %v", card, err)
	}
	d, err := sys.ColumnDistinct("R1", "x")
	if err != nil || d != 10 {
		t.Errorf("ColumnDistinct = %g, %v", d, err)
	}
	if _, err := sys.TableCard("zz"); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := sys.ColumnDistinct("R1", "zz"); err == nil {
		t.Error("unknown column should error")
	}
	if _, err := sys.ColumnDistinct("zz", "x"); err == nil {
		t.Error("unknown table should error")
	}
}

func TestEstimateExample1b(t *testing.T) {
	sys := paperSystem(t)
	est, err := sys.Estimate(example1bSQL, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.FinalSize != 1000 {
		t.Errorf("ELS final size = %g, want 1000", est.FinalSize)
	}
	if len(est.JoinOrder) != 3 || len(est.Steps) != 2 {
		t.Errorf("estimate shape: %+v", est)
	}
	if len(est.ImpliedPredicates) != 1 {
		t.Errorf("implied = %v, want the transitive J3", est.ImpliedPredicates)
	}
	if !strings.Contains(est.PlanText, "Scan(") {
		t.Errorf("plan text:\n%s", est.PlanText)
	}
}

func TestEstimateOrderPaperExamples(t *testing.T) {
	sys := paperSystem(t)
	cases := []struct {
		algo Algorithm
		want float64
	}{
		{AlgorithmSMPTC, 1},
		{AlgorithmSSS, 100},
		{AlgorithmELS, 1000},
		{AlgorithmRepLargest, 10000},
		{AlgorithmRepSmallest, 100},
	}
	for _, c := range cases {
		est, err := sys.EstimateOrder(example1bSQL, c.algo, []string{"R2", "R3", "R1"})
		if err != nil {
			t.Fatalf("%s: %v", c.algo, err)
		}
		if math.Abs(est.FinalSize-c.want) > 1e-6 {
			t.Errorf("%s along R2,R3,R1 = %g, want %g", c.algo, est.FinalSize, c.want)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	sys := paperSystem(t)
	if _, err := sys.Estimate("not sql", AlgorithmELS); err == nil {
		t.Error("bad SQL should error")
	}
	if _, err := sys.Estimate("SELECT COUNT(*) FROM nope", AlgorithmELS); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := sys.Estimate(example1bSQL, Algorithm(99)); err == nil {
		t.Error("unknown algorithm should error")
	}
	if _, err := sys.EstimateOrder(example1bSQL, AlgorithmELS, []string{"zz"}); err == nil {
		t.Error("bad order should error")
	}
	if _, err := sys.EstimateOrder(example1bSQL, Algorithm(99), nil); err == nil {
		t.Error("unknown algorithm should error")
	}
	if _, err := sys.EstimateOrder("bad(", AlgorithmELS, nil); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestExplain(t *testing.T) {
	sys := paperSystem(t)
	out, err := sys.Explain(example1bSQL, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"algorithm: ELS", "implied by transitive closure", "estimated result size: 1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if _, err := sys.Explain("junk", AlgorithmELS); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestLoadTableAndQuery(t *testing.T) {
	sys := New()
	if err := sys.LoadTable("A", []string{"k", "v"}, [][]int64{
		{1, 10}, {2, 20}, {3, 30}, {3, 31},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("B", []string{"k", "w"}, [][]int64{
		{2, 200}, {3, 300},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT COUNT(*) FROM A, B WHERE A.k = B.k", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Errorf("count = %d, want 3", res.Count)
	}
	// Deterministic work counters only — wall-clock may round to zero on
	// coarse clocks.
	if res.TuplesScanned <= 0 || res.Comparisons <= 0 {
		t.Error("work counters missing")
	}
	// Projection query materializes rows.
	res, err = sys.Query("SELECT A.k, B.w FROM A, B WHERE A.k = B.k AND A.v > 25", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || len(res.Rows) != 2 || len(res.Columns) != 2 {
		t.Errorf("projection result: %+v", res)
	}
	if res.Columns[0] != "A.k" {
		t.Errorf("columns = %v", res.Columns)
	}
	// SELECT * materializes all columns.
	res, err = sys.Query("SELECT * FROM B", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || len(res.Rows) != 2 {
		t.Errorf("star result: %+v", res)
	}
}

func TestLoadTableValidation(t *testing.T) {
	sys := New()
	if err := sys.LoadTable("", []string{"k"}, nil); err == nil {
		t.Error("empty name should error")
	}
	if err := sys.LoadTable("t", nil, nil); err == nil {
		t.Error("no columns should error")
	}
	if err := sys.LoadTable("t", []string{"k", "k"}, nil); err == nil {
		t.Error("duplicate columns should error")
	}
	if err := sys.LoadTable("t", []string{"k"}, [][]int64{{1, 2}}); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestLoadTableHist(t *testing.T) {
	sys := New()
	rows := make([][]int64, 100)
	for i := range rows {
		v := int64(0)
		if i >= 90 {
			v = int64(i)
		}
		rows[i] = []int64{v}
	}
	if err := sys.LoadTableHist("H", []string{"x"}, rows, 8); err != nil {
		t.Fatal(err)
	}
	// With histograms the skewed x=0 predicate should estimate ~90 rows; a
	// pure uniformity estimate would say 100/11 ≈ 9.
	est, err := sys.Estimate("SELECT COUNT(*) FROM H WHERE x = 0", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.FinalSize < 50 {
		t.Errorf("histogram estimate = %g, want ~90 (distribution stats in use)", est.FinalSize)
	}
}

func TestGenerateTable(t *testing.T) {
	sys := New()
	if err := sys.GenerateTable("Z", "k", "zipf", 500, 50, 1.0, 7); err != nil {
		t.Fatal(err)
	}
	card, _ := sys.TableCard("Z")
	if card != 500 {
		t.Errorf("generated card = %g", card)
	}
	if err := sys.GenerateTable("P", "k", "permutation", 100, 0, 0, 7); err != nil {
		t.Fatal(err)
	}
	if d, _ := sys.ColumnDistinct("P", "k"); d != 100 {
		t.Errorf("permutation distinct = %g, want 100", d)
	}
	if err := sys.GenerateTable("U", "k", "uniform", 100, 10, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateTable("S", "k", "sequential", 100, 10, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := sys.GenerateTable("X", "k", "bogus", 10, 10, 0, 7); err == nil {
		t.Error("unknown distribution should error")
	}
}

func TestCompareAlgorithms(t *testing.T) {
	sys := New()
	for i, name := range []string{"A", "B", "C"} {
		if err := sys.GenerateTable(name, "k", "uniform", 200, 20, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sql := "SELECT COUNT(*) FROM A, B, C WHERE A.k = B.k AND B.k = C.k AND A.payload >= 0"
	results, err := sys.CompareAlgorithms(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results[1:] {
		if r.Count != results[0].Count {
			t.Error("all algorithms must compute the same count")
		}
	}
	// Explicit algorithm list.
	two, err := sys.CompareAlgorithms(sql, AlgorithmELS, AlgorithmSM)
	if err != nil || len(two) != 2 {
		t.Errorf("explicit list: %v, %v", two, err)
	}
	if _, err := sys.CompareAlgorithms("junk("); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestQueryWithoutDataErrors(t *testing.T) {
	sys := paperSystem(t) // stats only, no data
	if _, err := sys.Query(example1bSQL, AlgorithmELS); err == nil {
		t.Error("executing a stats-only table should error")
	}
}

// The full Section 8 pipeline through the public API: declared statistics
// reproduce the paper's estimates per algorithm.
func TestPublicAPISection8Estimates(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("S", 1000, map[string]float64{"s": 1000})
	sys.MustDeclareStats("M", 10000, map[string]float64{"m": 10000})
	sys.MustDeclareStats("B", 50000, map[string]float64{"b": 50000})
	sys.MustDeclareStats("G", 100000, map[string]float64{"g": 100000})
	sql := "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100"

	est, err := sys.EstimateOrder(sql, AlgorithmSMPTC, []string{"S", "B", "M", "G"})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.2, 4e-8, 4e-21}
	for i, s := range est.Steps {
		if math.Abs(s.Size-want[i]) > 1e-9*want[i] {
			t.Errorf("SM+PTC step %d = %g, want %g", i, s.Size, want[i])
		}
	}
	est, err = sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.FinalSize != 100 {
		t.Errorf("ELS final = %g, want 100", est.FinalSize)
	}
	for _, s := range est.Steps {
		if s.Size != 100 {
			t.Errorf("ELS step size = %g, want 100", s.Size)
		}
	}
}
