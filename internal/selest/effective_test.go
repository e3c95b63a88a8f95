package selest_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/selest"
	"repro/internal/storage"
)

// The estimator folds a table's local predicates into its effective
// statistics (ELS steps 3–4) with this package's Section 5 and Section 6
// formulas. These tests fold one table at a time through cardest, the only
// place the fold runs.

func ref(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }

// folded is ts alone under its local predicates locals and OR-groups disjs,
// folded by Algorithm ELS.
func folded(ts *catalog.TableStats, locals []expr.Predicate, disjs []expr.Disjunction) (*cardest.Estimator, error) {
	cat := catalog.New()
	if err := cat.AddTable(ts); err != nil {
		return nil, err
	}
	return cardest.NewQuery(cat, []cardest.TableRef{{Table: ts.Name}}, locals, disjs, cardest.ELS())
}

func mustFold(t *testing.T, ts *catalog.TableStats, locals []expr.Predicate, disjs []expr.Disjunction) *cardest.Estimator {
	t.Helper()
	e, err := folded(ts, locals, disjs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// card is the folded table's ‖R‖′.
func card(e *cardest.Estimator) float64 {
	c, _, _ := e.Table(0)
	return c
}

// colCard is the d′ of the folded table's column, NaN if it has none.
func colCard(e *cardest.Estimator, column string) float64 {
	d, err := e.ColumnCard(0, column)
	if err != nil {
		return math.NaN()
	}
	return d
}

func TestEffectiveTableNoLocals(t *testing.T) {
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"x": 100, "y": 50})
	e := mustFold(t, ts, nil, nil)
	if c := card(e); c != 1000 {
		t.Errorf("card = %g", c)
	}
	if d := colCard(e, "x"); d != 100 {
		t.Errorf("d_x = %g", d)
	}
	if d := colCard(e, "Y"); d != 50 {
		t.Errorf("d_y = %g (case-insensitive lookup)", d)
	}
	if _, err := e.ColumnCard(0, "zz"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestEffectiveTableRangeOnJoinColumn(t *testing.T) {
	// Section 8's table S: ‖S‖=1000, d_s=1000, s<100 ⇒ ‖S‖′=100, d′_s=100.
	ts := catalog.SimpleTable("S", 1000, map[string]float64{"s": 1000})
	e := mustFold(t, ts, []expr.Predicate{
		expr.NewConst(ref("S", "s"), expr.OpLT, storage.Int64(100)),
	}, nil)
	if c := card(e); c != 100 {
		t.Errorf("‖S‖′ = %g, want 100", c)
	}
	if d := colCard(e, "s"); d != 100 {
		t.Errorf("d′_s = %g, want 100 (d × S_L per Section 5)", d)
	}
	if sel := card(e) / ts.Card; sel != 0.1 {
		t.Errorf("local selectivity = %g, want 0.1", sel)
	}
}

func TestEffectiveTableEqualityPinsDistinct(t *testing.T) {
	// Section 5: local predicate y=a gives d′_y = 1.
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"y": 100, "x": 500})
	e := mustFold(t, ts, []expr.Predicate{
		expr.NewConst(ref("R", "y"), expr.OpEQ, storage.Int64(7)),
	}, nil)
	if d := colCard(e, "y"); d != 1 {
		t.Errorf("d′_y = %g, want 1", d)
	}
	if c := card(e); c != 10 {
		t.Errorf("‖R‖′ = %g, want 1000/100", c)
	}
	// Unpredicated column x shrinks by the urn model: urn(500, 10) ≈ 10.
	if d := colCard(e, "x"); d != selest.UrnDistinctCeil(500, 10) {
		t.Errorf("d′_x = %g, want urn(500,10) = %g", d, selest.UrnDistinctCeil(500, 10))
	}
}

func TestEffectiveTableUrnVsLinearOnOtherColumn(t *testing.T) {
	// The Section 5 numeric contrast: d_x=10000, ‖R‖=100000, predicate keeps
	// half the rows. Urn gives 9933, linear gives 5000.
	ts := catalog.SimpleTable("R", 100000, map[string]float64{"x": 10000, "y": 200000})
	// y's domain 0..199999 clamped to distinct 100000 by catalog; use range
	// predicate keeping half.
	ts.Columns["y"].Distinct = 100000
	ts.Columns["y"].Max = 99999
	locals := []expr.Predicate{expr.NewConst(ref("R", "y"), expr.OpLT, storage.Int64(50000))}

	e := mustFold(t, ts, locals, nil)
	if c := card(e); c != 50000 {
		t.Fatalf("‖R‖′ = %g, want 50000", c)
	}
	if d := colCard(e, "x"); d != 9933 {
		t.Errorf("urn d′_x = %g, want 9933 (paper Section 5)", d)
	}
	if lin := selest.LinearDistinct(10000, ts.Card, card(e)); lin != 5000 {
		t.Errorf("linear d′_x = %g, want 5000", lin)
	}
}

func TestEffectiveTableSection6Example(t *testing.T) {
	// Section 6: ‖R2‖=1000, d_y=10, d_w=50, predicate (R2.y = R2.w).
	// ‖R2‖′ = ⌈1000/50⌉ = 20, effective join cardinality ⌈10(1−0.9^20)⌉ = 9.
	ts := catalog.SimpleTable("R2", 1000, map[string]float64{"y": 10, "w": 50})
	e := mustFold(t, ts, []expr.Predicate{
		expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R2", "w")),
	}, nil)
	if c := card(e); c != 20 {
		t.Errorf("‖R2‖′ = %g, want 20", c)
	}
	if dy, dw := colCard(e, "y"), colCard(e, "w"); dy != 9 || dw != 9 {
		t.Errorf("effective join cardinalities = (%g, %g), want (9, 9)", dy, dw)
	}
}

func TestEffectiveTableThreeWayJEquiv(t *testing.T) {
	// Generalization: three j-equivalent columns d = (4, 10, 20) in a table
	// of 10000 rows. ‖R‖′ = ⌈10000/(10·20)⌉ = 50; d_eff = ⌈4(1−0.75^50)⌉ = 4.
	ts := catalog.SimpleTable("R", 10000, map[string]float64{"a": 4, "b": 10, "c": 20})
	e := mustFold(t, ts, []expr.Predicate{
		expr.NewJoin(ref("R", "a"), expr.OpEQ, ref("R", "b")),
		expr.NewJoin(ref("R", "b"), expr.OpEQ, ref("R", "c")),
	}, nil)
	if c := card(e); c != 50 {
		t.Errorf("‖R‖′ = %g, want 50", c)
	}
	for _, col := range []string{"a", "b", "c"} {
		if d := colCard(e, col); d != 4 {
			t.Errorf("d′_%s = %g, want 4", col, d)
		}
	}
}

func TestEffectiveTableConstThenJEquiv(t *testing.T) {
	// Both kinds of local predicates compose: first the constant predicate
	// halves the table, then the j-equivalence reduction divides by the
	// (urn-reduced) larger column cardinality.
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"y": 10, "w": 50, "z": 1000})
	e := mustFold(t, ts, []expr.Predicate{
		expr.NewConst(ref("R", "z"), expr.OpLT, storage.Int64(500)),
		expr.NewJoin(ref("R", "y"), expr.OpEQ, ref("R", "w")),
	}, nil)
	// After z<500: card 500, d_y and d_w barely reduced (urn(10,500)=10,
	// urn(50,500)=50). Then j-equiv: card = ceil(500/50) = 10.
	if c := card(e); c != 10 {
		t.Errorf("‖R‖′ = %g, want 10", c)
	}
	if dy, want := colCard(e, "y"), selest.UrnDistinctCeil(10, 10); dy != want {
		t.Errorf("d′_y = %g, want %g", dy, want)
	}
}

func TestEffectiveTableColColNonEquality(t *testing.T) {
	ts := catalog.SimpleTable("R", 900, map[string]float64{"a": 30, "b": 30})
	e := mustFold(t, ts, []expr.Predicate{
		expr.NewJoin(ref("R", "a"), expr.OpLT, ref("R", "b")),
	}, nil)
	if c := card(e); c != 300 {
		t.Errorf("‖R‖′ = %g, want 900/3", c)
	}
}

func TestEffectiveTableErrors(t *testing.T) {
	ts := catalog.SimpleTable("R", 100, map[string]float64{"x": 10})
	for _, c := range []struct {
		why   string
		pred  expr.Predicate
		disjs []expr.Disjunction
	}{
		{"foreign predicate", expr.NewConst(ref("Q", "x"), expr.OpEQ, storage.Int64(1)), nil},
		{"join predicate to a table outside the query", expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("Q", "y")), nil},
		{"unknown column", expr.NewConst(ref("R", "zz"), expr.OpEQ, storage.Int64(1)), nil},
		{"unknown j-equiv column", expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("R", "nope")), nil},
	} {
		if _, err := folded(ts, []expr.Predicate{c.pred}, c.disjs); err == nil {
			t.Errorf("%s should error", c.why)
		}
	}
}

func TestEffectiveTableZeroSelectivity(t *testing.T) {
	ts := catalog.SimpleTable("R", 100, map[string]float64{"x": 10, "y": 5})
	e := mustFold(t, ts, []expr.Predicate{
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(1)),
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(2)),
	}, nil)
	if c := card(e); c != 0 {
		t.Errorf("contradiction should empty the table: %g", c)
	}
	if d := colCard(e, "x"); d != 0 {
		t.Errorf("d′_x = %g, want 0", d)
	}
}

func TestEffectiveTableWithDisjunction(t *testing.T) {
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"x": 10, "y": 100})
	d, err := expr.NewDisjunction([]expr.Predicate{
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(1)),
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := card(mustFold(t, ts, nil, []expr.Disjunction{d})); math.Abs(c-190) > 1e-9 {
		t.Errorf("‖R‖′ = %g, want 190", c)
	}
	// Disjunction on a foreign table errors.
	foreign, err := expr.NewDisjunction([]expr.Predicate{expr.NewConst(ref("Q", "x"), expr.OpEQ, storage.Int64(1))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := folded(ts, nil, []expr.Disjunction{foreign}); err == nil {
		t.Error("foreign disjunction should error")
	}
}

// Constant predicates group by subject column, and the groups multiply
// into ‖R‖′ in column-key order, whatever order the predicates come in.
func TestGroupConstPredicates(t *testing.T) {
	r := catalog.SimpleTable("R", 1000, map[string]float64{"a": 100, "b": 10})
	cat := catalog.New()
	cat.MustAddTable(r)
	cat.MustAddTable(catalog.SimpleTable("Q", 1000, map[string]float64{"z": 100}))
	aGT1 := expr.NewConst(ref("R", "a"), expr.OpGT, storage.Int64(1))
	bLT5 := expr.NewConst(ref("R", "b"), expr.OpLT, storage.Int64(5))
	bGT2 := expr.NewConst(ref("R", "b"), expr.OpGT, storage.Int64(2))
	e, err := cardest.New(cat, []cardest.TableRef{{Table: "R"}, {Table: "Q"}}, []expr.Predicate{
		bLT5, aGT1, bGT2,
		expr.NewJoin(ref("R", "a"), expr.OpEQ, ref("Q", "z")), // not a constant predicate
	}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	selA, err := selest.ColumnPredicateSet{Column: ref("R", "a"), Preds: []expr.Predicate{aGT1}}.Resolve(r.Column("a"))
	if err != nil {
		t.Fatal(err)
	}
	selB, err := selest.ColumnPredicateSet{Column: ref("R", "b"), Preds: []expr.Predicate{bLT5, bGT2}}.Resolve(r.Column("b"))
	if err != nil {
		t.Fatal(err)
	}
	if c, want := card(e), r.Card*selA*selB; c != want {
		t.Errorf("‖R‖′ = %v, want ‖R‖ × S(a) × S(b) = %v", c, want)
	}
	if d := colCard(e, "a"); d != 100*selA {
		t.Errorf("d′_a = %g, want %g", d, 100*selA)
	}
	if d := colCard(e, "b"); d != 10*selB {
		t.Errorf("d′_b = %g, want %g", d, 10*selB)
	}
}

// Property: effective stats respect the invariants 0 ≤ ‖R‖′ ≤ ‖R‖ and, for
// every column, 0 ≤ d′ ≤ d with d′ ≤ ‖R‖′ + 1 (ceiling slack), across
// random range predicates.
func TestEffectiveInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := float64(1 + rng.Intn(10000))
		dx := float64(1 + rng.Intn(int(n)))
		dy := float64(1 + rng.Intn(int(n)))
		ts := catalog.SimpleTable("R", n, map[string]float64{"x": dx, "y": dy})
		cut := int64(rng.Intn(int(dy) + 1))
		e := mustFold(t, ts, []expr.Predicate{
			expr.NewConst(ref("R", "y"), expr.OpLT, storage.Int64(cut)),
		}, nil)
		c := card(e)
		if c < 0 || c > n {
			t.Fatalf("trial %d: card %g outside [0, %g]", trial, c, n)
		}
		for _, col := range []string{"x", "y"} {
			d := colCard(e, col)
			if !(d >= 0) || d > math.Max(dx, dy)+1e-9 {
				t.Fatalf("trial %d: d′_%s = %g out of range", trial, col, d)
			}
			if c > 0 && d > math.Ceil(c)+1e-9 {
				t.Fatalf("trial %d: d′_%s = %g exceeds rows %g", trial, col, d, c)
			}
		}
	}
}
