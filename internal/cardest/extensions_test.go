package cardest

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/storage"
)

func mustDisj(t *testing.T, preds ...expr.Predicate) expr.Disjunction {
	t.Helper()
	d, err := expr.NewDisjunction(preds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewQueryWithDisjunctions(t *testing.T) {
	cat := example1bCatalog()
	d := mustDisj(t,
		expr.NewConst(ref("R2", "y"), expr.OpEQ, storage.Int64(1)),
		expr.NewConst(ref("R2", "y"), expr.OpEQ, storage.Int64(2)),
	)
	e, err := NewQuery(cat, example1bTables(), example1bPreds(), []expr.Disjunction{d}, ELS())
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Disjunctions()) != 1 {
		t.Errorf("Disjunctions = %v", e.Disjunctions())
	}
	// ‖R2‖′ = 1000 × (1 − 0.99²) = 19.9.
	eff, _ := e.Effective("R2")
	if math.Abs(eff.Card-19.9) > 1e-9 {
		t.Errorf("‖R2‖′ = %g, want 19.9", eff.Card)
	}
	// Duplicate disjunctions are removed.
	e2, err := NewQuery(cat, example1bTables(), example1bPreds(), []expr.Disjunction{d, d}, ELS())
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Disjunctions()) != 1 {
		t.Errorf("duplicates should collapse: %v", e2.Disjunctions())
	}
	// Standard (non-effective) algorithms also reduce the cardinality.
	e3, err := NewQuery(cat, example1bTables(), example1bPreds(), []expr.Disjunction{d}, SM())
	if err != nil {
		t.Fatal(err)
	}
	eff3, _ := e3.Effective("R2")
	if math.Abs(eff3.Card-19.9) > 1e-9 {
		t.Errorf("standard ‖R2‖′ = %g, want 19.9", eff3.Card)
	}
	if e.Catalog() != cat {
		t.Error("Catalog accessor wrong")
	}
}

func TestNewQueryDisjunctionValidation(t *testing.T) {
	cat := example1bCatalog()
	join := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
	}}
	if _, err := NewQuery(cat, example1bTables(), nil, []expr.Disjunction{join}, ELS()); err == nil {
		t.Error("join disjunct should error")
	}
	empty := expr.Disjunction{}
	if _, err := NewQuery(cat, example1bTables(), nil, []expr.Disjunction{empty}, ELS()); err == nil {
		t.Error("empty disjunction should error")
	}
	badTable := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewConst(ref("ZZ", "x"), expr.OpEQ, storage.Int64(1)),
	}}
	if _, err := NewQuery(cat, example1bTables(), nil, []expr.Disjunction{badTable}, ELS()); err == nil {
		t.Error("unknown table should error")
	}
	badCol := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewJoin(ref("R2", "y"), expr.OpLT, ref("R2", "nope")),
	}}
	if _, err := NewQuery(cat, example1bTables(), nil, []expr.Disjunction{badCol}, ELS()); err == nil {
		t.Error("unknown colcol column should error")
	}
}

func TestStandardEffectiveLocalColCol(t *testing.T) {
	// The standard algorithm treats a same-table equality as a flat
	// 1/max(d) reduction and a non-equality as 1/3 — "no special case".
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("R", 3000, map[string]float64{"y": 10, "w": 50}))
	e, err := New(cat, []TableRef{{Table: "R"}},
		[]expr.Predicate{expr.NewJoin(ref("R", "y"), expr.OpEQ, ref("R", "w"))}, SM())
	if err != nil {
		t.Fatal(err)
	}
	eff, _ := e.Effective("R")
	if eff.Card != 60 {
		t.Errorf("standard colcol eq card = %g, want 3000/50", eff.Card)
	}
	// Column cardinalities stay raw under the standard algorithm.
	if d, _ := eff.ColumnCard("y"); d != 10 {
		t.Errorf("standard d(y) = %g, want raw 10", d)
	}
	e2, err := New(cat, []TableRef{{Table: "R"}},
		[]expr.Predicate{expr.NewJoin(ref("R", "y"), expr.OpLT, ref("R", "w"))}, SM())
	if err != nil {
		t.Fatal(err)
	}
	eff2, _ := e2.Effective("R")
	if eff2.Card != 1000 {
		t.Errorf("standard colcol non-eq card = %g, want 3000/3", eff2.Card)
	}
	// Unknown column in a colcol predicate errors.
	if _, err := New(cat, []TableRef{{Table: "R"}},
		[]expr.Predicate{expr.NewJoin(ref("R", "y"), expr.OpEQ, ref("R", "zz"))}, SM()); err == nil {
		t.Error("unknown column should error")
	}
}

func TestHistogramJoinSelectivityPath(t *testing.T) {
	// Build a catalog with histograms from skewed data; the ELS+hist config
	// must produce a different (better) selectivity than plain ELS.
	cat := catalog.New()
	for i, rows := range []int{2000, 1500} {
		tbl, err := datagen.Generate(datagen.TableSpec{
			Name: []string{"A", "B"}[i],
			Rows: rows,
			Columns: []datagen.ColumnSpec{
				{Name: "k", Dist: datagen.DistZipf, Domain: 100, Theta: 1.0},
			},
		}, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{HistogramBuckets: 32}); err != nil {
			t.Fatal(err)
		}
	}
	pred := expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))
	tabs := []TableRef{{Table: "A"}, {Table: "B"}}

	plain, err := New(cat, tabs, []expr.Predicate{pred}, ELS())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ELS()
	cfg.Sel.HistogramJoins = true
	hist, err := New(cat, tabs, []expr.Predicate{pred}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sPlain, _ := plain.joinSelectivity(pred)
	sHist, _ := hist.joinSelectivity(pred)
	if sHist <= sPlain {
		t.Errorf("skewed hist selectivity %g should exceed uniform %g", sHist, sPlain)
	}
	// Fallback path: a column without a histogram uses Equation 2.
	noHist := catalog.New()
	noHist.MustAddTable(catalog.SimpleTable("A", 100, map[string]float64{"k": 10}))
	noHist.MustAddTable(catalog.SimpleTable("B", 100, map[string]float64{"k": 20}))
	e3, err := New(noHist, tabs, []expr.Predicate{pred}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s3, _ := e3.joinSelectivity(pred)
	if s3 != 0.05 {
		t.Errorf("fallback selectivity = %g, want 1/20", s3)
	}
}

func TestZeroDistinctJoinSelectivity(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 0, map[string]float64{"k": 0}))
	cat.MustAddTable(catalog.SimpleTable("B", 10, map[string]float64{"k": 5}))
	e, err := New(cat, []TableRef{{Table: "A"}, {Table: "B"}},
		[]expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))},
		Config{Rule: RuleLS})
	if err != nil {
		t.Fatal(err)
	}
	// d(A.k)=0 but d(B.k)=5 → 1/5; both zero → 0.
	s, err := e.joinSelectivity(expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k")))
	if err != nil || s != 0.2 {
		t.Errorf("sel = %g, err %v", s, err)
	}
	cat2 := catalog.New()
	cat2.MustAddTable(catalog.SimpleTable("A", 0, map[string]float64{"k": 0}))
	cat2.MustAddTable(catalog.SimpleTable("B", 0, map[string]float64{"k": 0}))
	e2, _ := New(cat2, []TableRef{{Table: "A"}, {Table: "B"}},
		[]expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))}, ELS())
	s2, err := e2.joinSelectivity(expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k")))
	if err != nil || s2 != 0 {
		t.Errorf("zero-d sel = %g, err %v", s2, err)
	}
}
