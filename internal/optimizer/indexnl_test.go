package optimizer

import (
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
)

// indexedChainCatalog builds data-backed tables A (small) and B (large,
// selective key) and indexes B.k.
func indexedChainCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	specs := []datagen.TableSpec{
		{Name: "A", Rows: 50, Columns: []datagen.ColumnSpec{{Name: "k", Dist: datagen.DistUniform, Domain: 1000}}},
		{Name: "B", Rows: 5000, Columns: []datagen.ColumnSpec{{Name: "k", Dist: datagen.DistUniform, Domain: 1000}}},
	}
	for i, spec := range specs {
		tbl, err := datagen.Generate(spec, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.BuildIndex("B", "k"); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestIndexNLChosenWhenSelective(t *testing.T) {
	cat := indexedChainCatalog(t)
	preds := []expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))}
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}}, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(est, Options{Methods: []JoinMethod{NestedLoop, SortMerge, IndexNL}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.PlanForOrder([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	j := plan.(*Join)
	if j.Method != IndexNL || j.IndexColumn != "k" {
		t.Errorf("expected IndexNL on k, got %s (%q)", j.Method, j.IndexColumn)
	}
	if IndexNL.String() != "IDXNL" {
		t.Error("IndexNL name wrong")
	}
	// The reverse orientation (B as inner referenced on the right side of
	// the predicate) also finds the index.
	preds2 := []expr.Predicate{expr.NewJoin(ref("B", "k"), expr.OpEQ, ref("A", "k"))}
	est2, _ := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}}, preds2, cardest.ELS())
	o2, _ := New(est2, Options{Methods: []JoinMethod{IndexNL}})
	plan2, err := o2.PlanForOrder([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.(*Join).IndexColumn != "k" {
		t.Errorf("reverse orientation: %+v", plan2)
	}
}

func TestIndexNLNotOfferedWithoutIndexOrEquality(t *testing.T) {
	cat := indexedChainCatalog(t)
	// Index exists on B.k but the predicate is a non-equality: IndexNL must
	// not apply.
	preds := []expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpLT, ref("B", "k"))}
	est, _ := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}}, preds, cardest.ELS())
	o, _ := New(est, Options{Methods: []JoinMethod{IndexNL}})
	if _, err := o.PlanForOrder([]string{"A", "B"}); err == nil {
		t.Error("IndexNL with a non-equality predicate should be inapplicable")
	}
	// Index on the outer side only: joining with A as inner offers nothing.
	preds2 := []expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))}
	est2, _ := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}}, preds2, cardest.ELS())
	o2, _ := New(est2, Options{Methods: []JoinMethod{IndexNL}})
	if _, err := o2.PlanForOrder([]string{"B", "A"}); err == nil {
		t.Error("inner without index should be inapplicable")
	}
}

func TestExpectedMatchesFallbacks(t *testing.T) {
	base := indexedChainCatalog(t).Table("B")
	m := expectedMatches(base, "k")
	if m < 1 || m > 20 {
		t.Errorf("expected matches per probe ≈ 5000/1000 = 5, got %g", m)
	}
	if got := expectedMatches(base, "missing"); got != 1 {
		t.Errorf("missing column fallback = %g, want 1", got)
	}
}
