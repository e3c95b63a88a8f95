package cardest

import (
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

// section8Catalog declares the statistics of the Section 8 experiment:
// ‖S‖=1000, ‖M‖=10000, ‖B‖=50000, ‖G‖=100000 with d equal to the table
// cardinality for each join column.
func section8Catalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAddTable(catalog.SimpleTable("S", 1000, map[string]float64{"s": 1000}))
	c.MustAddTable(catalog.SimpleTable("M", 10000, map[string]float64{"m": 10000}))
	c.MustAddTable(catalog.SimpleTable("B", 50000, map[string]float64{"b": 50000}))
	c.MustAddTable(catalog.SimpleTable("G", 100000, map[string]float64{"g": 100000}))
	return c
}

func section8Tables() []TableRef {
	return []TableRef{{Table: "S"}, {Table: "M"}, {Table: "B"}, {Table: "G"}}
}

// section8Preds is the original query: s=m AND m=b AND b=g AND s<100.
func section8Preds() []expr.Predicate {
	return []expr.Predicate{
		expr.NewJoin(ref("S", "s"), expr.OpEQ, ref("M", "m")),
		expr.NewJoin(ref("M", "m"), expr.OpEQ, ref("B", "b")),
		expr.NewJoin(ref("B", "b"), expr.OpEQ, ref("G", "g")),
		expr.NewConst(ref("S", "s"), expr.OpLT, storage.Int64(100)),
	}
}

func sizes(t *testing.T, e *Estimator, order []string) []float64 {
	t.Helper()
	steps, err := e.EstimateOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = s.Size
	}
	return out
}

func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// Row 2 of the paper's table: Algorithm SM on the PTC-rewritten query
// estimates (0.2, 4×10⁻⁸, 4×10⁻²¹) along the order S, B, M, G.
func TestSection8_SMWithPTC(t *testing.T) {
	e := mustNew(t, section8Catalog(), section8Tables(), section8Preds(), SM().WithClosure())
	got := sizes(t, e, []string{"S", "B", "M", "G"})
	want := []float64{0.2, 4e-8, 4e-21}
	for i := range want {
		if !approxEq(got[i], want[i]) {
			t.Errorf("SM+PTC step %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// Row 3: Algorithm SSS on the PTC-rewritten query estimates
// (0.2, 4×10⁻⁴, 4×10⁻⁷).
func TestSection8_SSSWithPTC(t *testing.T) {
	e := mustNew(t, section8Catalog(), section8Tables(), section8Preds(), SSS().WithClosure())
	got := sizes(t, e, []string{"S", "B", "M", "G"})
	want := []float64{0.2, 4e-4, 4e-7}
	for i := range want {
		if !approxEq(got[i], want[i]) {
			t.Errorf("SSS+PTC step %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// Row 4: Algorithm ELS estimates (100, 100, 100) along its chosen order
// B, G, M, S — and, because Rule LS agrees with Equation 3, along every
// other order too.
func TestSection8_ELS(t *testing.T) {
	e := mustNew(t, section8Catalog(), section8Tables(), section8Preds(), ELS())
	got := sizes(t, e, []string{"B", "G", "M", "S"})
	want := []float64{100, 100, 100}
	for i := range want {
		if !approxEq(got[i], want[i]) {
			t.Errorf("ELS step %d = %g, want %g", i, got[i], want[i])
		}
	}
	// Effective stats behind the estimates: every table reduced to 100 rows
	// and 100 distinct values.
	for _, tab := range []string{"S", "M", "B", "G"} {
		if card := rows(t, e, tab); card != 100 {
			t.Errorf("‖%s‖′ = %g, want 100", tab, card)
		}
		col := map[string]string{"S": "s", "M": "m", "B": "b", "G": "g"}[tab]
		n, _ := e.TableNumber(tab)
		if d, _ := e.ColumnCard(n, col); d != 100 {
			t.Errorf("d′_%s = %g, want 100", col, d)
		}
	}
}

// Row 1: Algorithm SM on the original query (no PTC). Only the chain
// predicates are eligible, so each incremental step multiplies exactly one
// selectivity; along S, M, B, G the estimates happen to be correct (100 at
// every step) — the plan is bad for a different reason (no early selection
// on M, B, G), which the executor experiments demonstrate.
func TestSection8_SMWithoutPTC(t *testing.T) {
	e := mustNew(t, section8Catalog(), section8Tables(), section8Preds(), SM())
	got := sizes(t, e, []string{"S", "M", "B", "G"})
	want := []float64{100, 100, 100}
	for i := range want {
		if !approxEq(got[i], want[i]) {
			t.Errorf("SM step %d = %g, want %g", i, got[i], want[i])
		}
	}
	// Without closure there is no implied predicate available.
	if len(e.Implied()) != 0 {
		t.Errorf("SM (no PTC) should not imply predicates: %v", e.Implied())
	}
	// M, B and G keep their full cardinalities (no implied local predicates).
	for tab, want := range map[string]float64{"M": 10000, "B": 50000, "G": 100000} {
		if card := rows(t, e, tab); card != want {
			t.Errorf("‖%s‖′ = %g, want %g (no early selection)", tab, card, want)
		}
	}
}

// The paper's Section 8: with the implied local predicates applied, every
// table holds 100 rows with 100 distinct join values, so Equation 3 gives
// 100 for every subset of the four tables. ELS estimates exactly that along
// every order of every subset.
func TestSection8_OracleIs100Everywhere(t *testing.T) {
	e := mustNew(t, section8Catalog(), section8Tables(), section8Preds(), ELS())
	var permute func(done, rest []string)
	permute = func(done, rest []string) {
		if n := len(done); n >= 2 {
			hundreds := make([]float64, n)
			for i := range hundreds {
				hundreds[i] = 100
			}
			want := equation3(hundreds, hundreds)
			if !approxEq(want, 100) {
				t.Fatalf("Equation 3 over %v = %g, want 100", done, want)
			}
			sz, err := e.FinalSize(done)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(sz, want) {
				t.Errorf("ELS along %v = %g, want Equation 3's %g", done, sz, want)
			}
		}
		for i, next := range rest {
			permute(append(slices.Clip(done), next), append(slices.Clip(rest[:i]), rest[i+1:]...))
		}
	}
	permute(nil, []string{"S", "M", "B", "G"})
}

// The estimated result sizes of Section 8's rows depend on the join order
// for SM and SSS but not for ELS.
func TestSection8_ELSOrderIndependent(t *testing.T) {
	e := mustNew(t, section8Catalog(), section8Tables(), section8Preds(), ELS())
	orders := [][]string{
		{"S", "M", "B", "G"},
		{"G", "B", "M", "S"},
		{"B", "G", "M", "S"},
		{"M", "S", "G", "B"},
		{"S", "G", "M", "B"},
	}
	for _, ord := range orders {
		sz, err := e.FinalSize(ord)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(sz, 100) {
			t.Errorf("ELS final size along %v = %g, want 100", ord, sz)
		}
	}
}
