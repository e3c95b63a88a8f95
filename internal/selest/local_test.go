package selest

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

func intCol(name string, d, min, max float64) *catalog.ColumnStats {
	return &catalog.ColumnStats{Name: name, Type: storage.TypeInt64, Distinct: d, HasRange: true, Min: min, Max: max}
}

func ref(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }

func TestConstSelectivityEquality(t *testing.T) {
	cs := intCol("x", 1000, 0, 999)
	sel, err := ConstSelectivity(cs, expr.OpEQ, storage.Int64(5))
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0.001 {
		t.Errorf("EQ selectivity = %g, want 1/1000", sel)
	}
	sel, _ = ConstSelectivity(cs, expr.OpNE, storage.Int64(5))
	if sel != 0.999 {
		t.Errorf("NE selectivity = %g, want 0.999", sel)
	}
}

func TestConstSelectivityRangeExactPaperNumbers(t *testing.T) {
	// The Section 8 experiment needs sel(s < 100) = 0.1 for d_s = 1000 over
	// the integer domain 0..999.
	cs := intCol("s", 1000, 0, 999)
	sel, err := ConstSelectivity(cs, expr.OpLT, storage.Int64(100))
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0.1 {
		t.Errorf("sel(s<100) = %g, want exactly 0.1", sel)
	}
	// And the other tables: 100/10000, 100/50000, 100/100000.
	for _, tc := range []struct {
		d    float64
		want float64
	}{{10000, 0.01}, {50000, 0.002}, {100000, 0.001}} {
		c := intCol("c", tc.d, 0, tc.d-1)
		sel, _ := ConstSelectivity(c, expr.OpLT, storage.Int64(100))
		if math.Abs(sel-tc.want) > 1e-12 {
			t.Errorf("d=%g: sel = %g, want %g", tc.d, sel, tc.want)
		}
	}
}

func TestConstSelectivityIntRangeOps(t *testing.T) {
	cs := intCol("x", 10, 0, 9)
	cases := []struct {
		op   expr.CompareOp
		c    int64
		want float64
	}{
		{expr.OpLT, 5, 0.5},
		{expr.OpLE, 5, 0.6},
		{expr.OpGT, 5, 0.4},
		{expr.OpGE, 5, 0.5},
		{expr.OpLT, 0, 0},
		{expr.OpLE, 9, 1},
		{expr.OpGT, 9, 0},
		{expr.OpGE, 0, 1},
		{expr.OpLT, 100, 1},
		{expr.OpGT, -5, 1},
	}
	for _, c := range cases {
		sel, err := ConstSelectivity(cs, c.op, storage.Int64(c.c))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sel-c.want) > 1e-12 {
			t.Errorf("x %s %d = %g, want %g", c.op, c.c, sel, c.want)
		}
	}
}

// On an integer column a comparison and its negation split the rows, so
// x > c and x <= c (and x < c and x >= c) sum to 1 for integral and
// fractional c alike, in range or beyond either end of it.
func TestConstSelectivityIntComplements(t *testing.T) {
	cs := intCol("x", 10, 0, 9)
	sel := func(op expr.CompareOp, c float64) float64 {
		t.Helper()
		s, err := ConstSelectivity(cs, op, storage.Float64(c))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []float64{-5, -0.5, 0, 0.5, 3, 4.5, 8.5, 9, 9.5, 100} {
		if got := sel(expr.OpGT, c) + sel(expr.OpLE, c); math.Abs(got-1) > 1e-12 {
			t.Errorf("x > %g plus x <= %g = %g, want 1", c, c, got)
		}
		if got := sel(expr.OpLT, c) + sel(expr.OpGE, c); math.Abs(got-1) > 1e-12 {
			t.Errorf("x < %g plus x >= %g = %g, want 1", c, c, got)
		}
	}
	// Over 0..9, five values exceed 4.5 and one exceeds 8.5.
	if got := sel(expr.OpGT, 4.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("x > 4.5 = %g, want 0.5", got)
	}
	if got := sel(expr.OpGT, 8.5); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("x > 8.5 = %g, want 0.1", got)
	}
}

func TestConstSelectivityFloatRange(t *testing.T) {
	cs := &catalog.ColumnStats{Name: "f", Type: storage.TypeFloat64, Distinct: 100, HasRange: true, Min: 0, Max: 10}
	sel, _ := ConstSelectivity(cs, expr.OpLT, storage.Float64(2.5))
	if sel != 0.25 {
		t.Errorf("float LT = %g, want 0.25", sel)
	}
	sel, _ = ConstSelectivity(cs, expr.OpGE, storage.Float64(7.5))
	if sel != 0.25 {
		t.Errorf("float GE = %g, want 0.25", sel)
	}
}

func TestConstSelectivityFallbacks(t *testing.T) {
	// No range info: 1/3 for ranges.
	cs := &catalog.ColumnStats{Name: "x", Type: storage.TypeInt64, Distinct: 10}
	sel, _ := ConstSelectivity(cs, expr.OpLT, storage.Int64(5))
	if sel != 1.0/3.0 {
		t.Errorf("no-range fallback = %g, want 1/3", sel)
	}
	// Non-numeric constant with a range op.
	cs2 := &catalog.ColumnStats{Name: "s", Type: storage.TypeString, Distinct: 10}
	sel, _ = ConstSelectivity(cs2, expr.OpGT, storage.String64("m"))
	if sel != 1.0/3.0 {
		t.Errorf("string range fallback = %g, want 1/3", sel)
	}
	// Equality on a string column uses 1/d.
	sel, _ = ConstSelectivity(cs2, expr.OpEQ, storage.String64("m"))
	if sel != 0.1 {
		t.Errorf("string EQ = %g, want 0.1", sel)
	}
	// NULL constant never matches.
	sel, _ = ConstSelectivity(cs, expr.OpEQ, storage.Null(storage.TypeInt64))
	if sel != 0 {
		t.Errorf("NULL const = %g, want 0", sel)
	}
	// Zero distinct count.
	cs3 := &catalog.ColumnStats{Name: "x", Type: storage.TypeInt64}
	sel, _ = ConstSelectivity(cs3, expr.OpEQ, storage.Int64(1))
	if sel != 0 {
		t.Errorf("empty column EQ = %g", sel)
	}
	sel, _ = ConstSelectivity(cs3, expr.OpNE, storage.Int64(1))
	if sel != 1 {
		t.Errorf("empty column NE = %g", sel)
	}
	// Nil stats error.
	if _, err := ConstSelectivity(nil, expr.OpEQ, storage.Int64(1)); err == nil {
		t.Error("nil stats should error")
	}
}

func TestConstSelectivityWithHistogram(t *testing.T) {
	// A skewed histogram should beat uniformity: 90% of mass at value 0.
	vals := make([]float64, 100)
	for i := 90; i < 100; i++ {
		vals[i] = float64(i)
	}
	h, err := catalog.NewEquiDepthHistogram(vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	cs := &catalog.ColumnStats{Name: "x", Type: storage.TypeInt64, Distinct: 11, HasRange: true, Min: 0, Max: 99, Hist: h}
	sel, _ := ConstSelectivity(cs, expr.OpEQ, storage.Int64(0))
	if math.Abs(sel-0.9) > 0.05 {
		t.Errorf("histogram EQ(0) = %g, want ~0.9", sel)
	}
	// Without the histogram: falls back to 1/d.
	noHist := *cs
	noHist.Hist = nil
	sel, _ = ConstSelectivity(&noHist, expr.OpEQ, storage.Int64(0))
	if math.Abs(sel-1.0/11) > 1e-9 {
		t.Errorf("uniform EQ(0) = %g, want 1/11", sel)
	}
	// Range with histogram.
	sel, _ = ConstSelectivity(cs, expr.OpLT, storage.Int64(1))
	if math.Abs(sel-0.9) > 0.05 {
		t.Errorf("histogram LT(1) = %g, want ~0.9", sel)
	}
	selGE, _ := ConstSelectivity(cs, expr.OpGE, storage.Int64(1))
	if math.Abs(selGE-(1-sel)) > 1e-9 {
		t.Errorf("GE should complement LT: %g vs %g", selGE, sel)
	}
	selNE, _ := ConstSelectivity(cs, expr.OpNE, storage.Int64(0))
	if math.Abs(selNE-0.1) > 0.05 {
		t.Errorf("histogram NE(0) = %g, want ~0.1", selNE)
	}
	selLE, _ := ConstSelectivity(cs, expr.OpLE, storage.Int64(0))
	if math.Abs(selLE-0.9) > 0.05 {
		t.Errorf("histogram LE(0) = %g, want ~0.9", selLE)
	}
	selGT, _ := ConstSelectivity(cs, expr.OpGT, storage.Int64(0))
	if math.Abs(selGT-0.1) > 0.05 {
		t.Errorf("histogram GT(0) = %g, want ~0.1", selGT)
	}
}

func constPred(col string, op expr.CompareOp, c int64) expr.Predicate {
	return expr.NewConst(ref("R", col), op, storage.Int64(c))
}

func TestResolveMostRestrictiveEquality(t *testing.T) {
	// [16]: "the most restrictive equality predicate is chosen if it exists".
	cs := intCol("x", 1000, 0, 999)
	set := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		constPred("x", expr.OpEQ, 5),
		constPred("x", expr.OpLT, 800),
	}}
	sel, err := set.Resolve(cs)
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0.001 {
		t.Errorf("equality should win: %g, want 0.001", sel)
	}
}

func TestResolveContradictoryEqualities(t *testing.T) {
	cs := intCol("x", 1000, 0, 999)
	set := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		constPred("x", expr.OpEQ, 5),
		constPred("x", expr.OpEQ, 6),
	}}
	sel, err := set.Resolve(cs)
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0 {
		t.Errorf("x=5 AND x=6 must be 0, got %g", sel)
	}
}

// An equality does not override the column's other predicates: a constant
// that fails one of them, or ranges that contradict each other, leave no
// row, and otherwise the equality caps what the ranges admit.
func TestResolveEqualityKeepsContradictions(t *testing.T) {
	cs := intCol("v", 100, 0, 99)
	for _, c := range []struct {
		preds []expr.Predicate
		want  float64
	}{
		{[]expr.Predicate{constPred("v", expr.OpLT, 11), constPred("v", expr.OpGT, 59), constPred("v", expr.OpEQ, 0)}, 0},
		{[]expr.Predicate{constPred("v", expr.OpEQ, 5), constPred("v", expr.OpGT, 5)}, 0},
		{[]expr.Predicate{constPred("v", expr.OpEQ, 5), constPred("v", expr.OpGE, 6)}, 0},
		{[]expr.Predicate{constPred("v", expr.OpLE, 4), constPred("v", expr.OpEQ, 5)}, 0},
		{[]expr.Predicate{constPred("v", expr.OpEQ, 5), constPred("v", expr.OpNE, 5)}, 0},
		{[]expr.Predicate{constPred("v", expr.OpEQ, 5), constPred("v", expr.OpGE, 5), constPred("v", expr.OpNE, 6)}, 0.01},
		{[]expr.Predicate{constPred("v", expr.OpEQ, 0), constPred("v", expr.OpLT, 11)}, 0.01},
	} {
		set := ColumnPredicateSet{Column: ref("R", "v"), Preds: c.preds}
		sel, err := set.Resolve(cs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sel-c.want) > 1e-12 {
			t.Errorf("%s = %g, want %g", expr.FormatConjunction(c.preds), sel, c.want)
		}
	}
}

// On an integer column v > 4 and v >= 5 are one bound, but a histogram
// prices them apart: 0.4 and 0.5 over 0..9 in the buckets [0,4] and [5,9].
// Adding the second to the first must not raise the estimate to 0.5.
func TestResolveKeepsTheSmallerOfEquivalentBounds(t *testing.T) {
	h, err := catalog.NewEquiDepthHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cs := intCol("v", 10, 0, 9)
	cs.Hist = h
	for _, preds := range [][]expr.Predicate{
		{constPred("v", expr.OpGT, 4)},
		{constPred("v", expr.OpGT, 4), constPred("v", expr.OpGE, 5)},
		{constPred("v", expr.OpGE, 5), constPred("v", expr.OpGT, 4)},
	} {
		set := ColumnPredicateSet{Column: ref("R", "v"), Preds: preds}
		sel, err := set.Resolve(cs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sel-0.4) > 1e-12 {
			t.Errorf("%s = %g, want 0.4", expr.FormatConjunction(preds), sel)
		}
	}
}

func TestResolveTightestRangePair(t *testing.T) {
	// [16]: "a pair of range predicates which form the tightest bound".
	cs := intCol("x", 1000, 0, 999)
	set := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		constPred("x", expr.OpGT, 99),  // x > 99  → x >= 100
		constPred("x", expr.OpGE, 50),  // weaker lower bound
		constPred("x", expr.OpLT, 300), // x < 300
		constPred("x", expr.OpLE, 900), // weaker upper bound
	}}
	sel, err := set.Resolve(cs)
	if err != nil {
		t.Fatal(err)
	}
	// Tightest: 99 < x < 300 → values 100..299 = 200 of 1000.
	if math.Abs(sel-0.2) > 1e-9 {
		t.Errorf("tightest range = %g, want 0.2", sel)
	}
}

func TestResolveContradictoryRange(t *testing.T) {
	cs := intCol("x", 1000, 0, 999)
	set := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		constPred("x", expr.OpGT, 500),
		constPred("x", expr.OpLT, 100),
	}}
	sel, err := set.Resolve(cs)
	if err != nil {
		t.Fatal(err)
	}
	if sel != 0 {
		t.Errorf("x>500 AND x<100 must be 0, got %g", sel)
	}
	// Touching bounds with strict comparison also contradict: x>5 AND x<5... and x>=5 AND x<=5 is a point.
	point := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		constPred("x", expr.OpGE, 5),
		constPred("x", expr.OpLE, 5),
	}}
	sel, _ = point.Resolve(cs)
	if math.Abs(sel-0.001) > 1e-9 {
		t.Errorf("point range 5<=x<=5 = %g, want ~1/1000", sel)
	}
	strict := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		constPred("x", expr.OpGT, 5),
		constPred("x", expr.OpLT, 5),
	}}
	sel, _ = strict.Resolve(cs)
	if sel != 0 {
		t.Errorf("x>5 AND x<5 = %g, want 0", sel)
	}
}

func TestResolveNEMultiplies(t *testing.T) {
	cs := intCol("x", 10, 0, 9)
	set := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		constPred("x", expr.OpNE, 3),
		constPred("x", expr.OpNE, 4),
	}}
	sel, err := set.Resolve(cs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel-0.81) > 1e-9 {
		t.Errorf("two NE = %g, want 0.9*0.9", sel)
	}
}

func TestResolveRejectsNonConst(t *testing.T) {
	cs := intCol("x", 10, 0, 9)
	set := ColumnPredicateSet{Column: ref("R", "x"), Preds: []expr.Predicate{
		expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("Q", "y")),
	}}
	if _, err := set.Resolve(cs); err == nil {
		t.Error("join predicate in const set should error")
	}
}

func TestGroupConstPredicates(t *testing.T) {
	preds := []expr.Predicate{
		constPred("b", expr.OpLT, 5),
		constPred("a", expr.OpGT, 1),
		constPred("b", expr.OpGT, 2),
		expr.NewJoin(ref("R", "a"), expr.OpEQ, ref("Q", "z")), // ignored
	}
	groups := GroupConstPredicates(preds)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[0].Column.Column != "a" || len(groups[0].Preds) != 1 {
		t.Errorf("group 0 = %+v", groups[0])
	}
	if groups[1].Column.Column != "b" || len(groups[1].Preds) != 2 {
		t.Errorf("group 1 = %+v", groups[1])
	}
}
