package selest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

func TestEffectiveTableNoLocals(t *testing.T) {
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"x": 100, "y": 50})
	eff, err := EffectiveTable(ts, ts.Name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Card != 1000 || eff.LocalSelectivity != 1 {
		t.Errorf("card = %g sel = %g", eff.Card, eff.LocalSelectivity)
	}
	if d, _ := eff.ColumnCard("x"); d != 100 {
		t.Errorf("d_x = %g", d)
	}
	if d, _ := eff.ColumnCard("Y"); d != 50 {
		t.Errorf("d_y = %g (case-insensitive lookup)", d)
	}
	if _, err := eff.ColumnCard("zz"); err == nil {
		t.Error("unknown column should error")
	}
}

func TestEffectiveTableRangeOnJoinColumn(t *testing.T) {
	// Section 8's table S: ‖S‖=1000, d_s=1000, s<100 ⇒ ‖S‖′=100, d′_s=100.
	ts := catalog.SimpleTable("S", 1000, map[string]float64{"s": 1000})
	eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewConst(ref("S", "s"), expr.OpLT, storage.Int64(100)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Card != 100 {
		t.Errorf("‖S‖′ = %g, want 100", eff.Card)
	}
	if d, _ := eff.ColumnCard("s"); d != 100 {
		t.Errorf("d′_s = %g, want 100 (d × S_L per Section 5)", d)
	}
	if eff.LocalSelectivity != 0.1 {
		t.Errorf("local selectivity = %g, want 0.1", eff.LocalSelectivity)
	}
}

func TestEffectiveTableEqualityPinsDistinct(t *testing.T) {
	// Section 5: local predicate y=a gives d′_y = 1.
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"y": 100, "x": 500})
	eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewConst(ref("R", "y"), expr.OpEQ, storage.Int64(7)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := eff.ColumnCard("y"); d != 1 {
		t.Errorf("d′_y = %g, want 1", d)
	}
	if eff.Card != 10 {
		t.Errorf("‖R‖′ = %g, want 1000/100", eff.Card)
	}
	// Unpredicated column x shrinks by the urn model: urn(500, 10) ≈ 10.
	d, _ := eff.ColumnCard("x")
	if d != UrnDistinctCeil(500, 10) {
		t.Errorf("d′_x = %g, want urn(500,10) = %g", d, UrnDistinctCeil(500, 10))
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

	eff, err := EffectiveTable(ts, ts.Name, locals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Card != 50000 {
		t.Fatalf("‖R‖′ = %g, want 50000", eff.Card)
	}
	if d, _ := eff.ColumnCard("x"); d != 9933 {
		t.Errorf("urn d′_x = %g, want 9933 (paper Section 5)", d)
	}
	if lin := LinearDistinct(10000, ts.Card, eff.Card); lin != 5000 {
		t.Errorf("linear d′_x = %g, want 5000", lin)
	}
}

func TestEffectiveTableSection6Example(t *testing.T) {
	// Section 6: ‖R2‖=1000, d_y=10, d_w=50, predicate (R2.y = R2.w).
	// ‖R2‖′ = ⌈1000/50⌉ = 20, effective join cardinality ⌈10(1−0.9^20)⌉ = 9.
	ts := catalog.SimpleTable("R2", 1000, map[string]float64{"y": 10, "w": 50})
	eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R2", "w")),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Card != 20 {
		t.Errorf("‖R2‖′ = %g, want 20", eff.Card)
	}
	dy, _ := eff.ColumnCard("y")
	dw, _ := eff.ColumnCard("w")
	if dy != 9 || dw != 9 {
		t.Errorf("effective join cardinalities = (%g, %g), want (9, 9)", dy, dw)
	}
	if len(eff.JEquivGroups) != 1 || len(eff.JEquivGroups[0]) != 2 {
		t.Errorf("JEquivGroups = %v", eff.JEquivGroups)
	}
}

func TestEffectiveTableThreeWayJEquiv(t *testing.T) {
	// Generalization: three j-equivalent columns d = (4, 10, 20) in a table
	// of 10000 rows. ‖R‖′ = ⌈10000/(10·20)⌉ = 50; d_eff = ⌈4(1−0.75^50)⌉ = 4.
	ts := catalog.SimpleTable("R", 10000, map[string]float64{"a": 4, "b": 10, "c": 20})
	eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewJoin(ref("R", "a"), expr.OpEQ, ref("R", "b")),
		expr.NewJoin(ref("R", "b"), expr.OpEQ, ref("R", "c")),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Card != 50 {
		t.Errorf("‖R‖′ = %g, want 50", eff.Card)
	}
	for _, col := range []string{"a", "b", "c"} {
		if d, _ := eff.ColumnCard(col); d != 4 {
			t.Errorf("d′_%s = %g, want 4", col, d)
		}
	}
}

func TestEffectiveTableConstThenJEquiv(t *testing.T) {
	// Both kinds of local predicates compose: first the constant predicate
	// halves the table, then the j-equivalence reduction divides by the
	// (urn-reduced) larger column cardinality.
	ts := catalog.SimpleTable("R", 1000, map[string]float64{"y": 10, "w": 50, "z": 1000})
	eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewConst(ref("R", "z"), expr.OpLT, storage.Int64(500)),
		expr.NewJoin(ref("R", "y"), expr.OpEQ, ref("R", "w")),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// After z<500: card 500, d_y and d_w barely reduced (urn(10,500)=10,
	// urn(50,500)=50). Then j-equiv: card = ceil(500/50) = 10.
	if eff.Card != 10 {
		t.Errorf("‖R‖′ = %g, want 10", eff.Card)
	}
	dy, _ := eff.ColumnCard("y")
	want := UrnDistinctCeil(10, 10)
	if dy != want {
		t.Errorf("d′_y = %g, want %g", dy, want)
	}
}

func TestEffectiveTableColColNonEquality(t *testing.T) {
	ts := catalog.SimpleTable("R", 900, map[string]float64{"a": 30, "b": 30})
	eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewJoin(ref("R", "a"), expr.OpLT, ref("R", "b")),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Card != 300 {
		t.Errorf("‖R‖′ = %g, want 900/3", eff.Card)
	}
}

func TestEffectiveTableErrors(t *testing.T) {
	ts := catalog.SimpleTable("R", 100, map[string]float64{"x": 10})
	if _, err := EffectiveTable(nil, "", nil, nil); err == nil {
		t.Error("nil stats should error")
	}
	// Predicate on a different table.
	if _, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewConst(ref("Q", "x"), expr.OpEQ, storage.Int64(1)),
	}, nil); err == nil {
		t.Error("foreign predicate should error")
	}
	// Join predicate passed as local.
	if _, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("Q", "y")),
	}, nil); err == nil {
		t.Error("join predicate should error")
	}
	// Unknown column.
	if _, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewConst(ref("R", "zz"), expr.OpEQ, storage.Int64(1)),
	}, nil); err == nil {
		t.Error("unknown column should error")
	}
	// Unknown column in j-equiv group.
	if _, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewJoin(ref("R", "x"), expr.OpEQ, ref("R", "nope")),
	}, nil); err == nil {
		t.Error("unknown j-equiv column should error")
	}
}

func TestEffectiveTableZeroSelectivity(t *testing.T) {
	ts := catalog.SimpleTable("R", 100, map[string]float64{"x": 10, "y": 5})
	eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(1)),
		expr.NewConst(ref("R", "x"), expr.OpEQ, storage.Int64(2)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Card != 0 {
		t.Errorf("contradiction should empty the table: %g", eff.Card)
	}
	if d, _ := eff.ColumnCard("x"); d != 0 {
		t.Errorf("d′_x = %g, want 0", d)
	}
}

// Property: effective stats respect the invariants 0 ≤ ‖R‖′ ≤ ‖R‖ and, for
// every column, 0 ≤ d′ ≤ d with d′ ≤ ‖R‖′ + 1 (ceiling slack), across
// random range predicates.
func TestEffectiveInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		card := float64(1 + rng.Intn(10000))
		dx := float64(1 + rng.Intn(int(card)))
		dy := float64(1 + rng.Intn(int(card)))
		ts := catalog.SimpleTable("R", card, map[string]float64{"x": dx, "y": dy})
		cut := int64(rng.Intn(int(dy) + 1))
		eff, err := EffectiveTable(ts, ts.Name, []expr.Predicate{
			expr.NewConst(ref("R", "y"), expr.OpLT, storage.Int64(cut)),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if eff.Card < 0 || eff.Card > card {
			t.Fatalf("trial %d: card %g outside [0, %g]", trial, eff.Card, card)
		}
		for _, col := range []string{"x", "y"} {
			d, _ := eff.ColumnCard(col)
			if d < 0 || d > math.Max(dx, dy)+1e-9 {
				t.Fatalf("trial %d: d′_%s = %g out of range", trial, col, d)
			}
			if eff.Card > 0 && d > math.Ceil(eff.Card)+1e-9 {
				t.Fatalf("trial %d: d′_%s = %g exceeds rows %g", trial, col, d, eff.Card)
			}
		}
	}
}
