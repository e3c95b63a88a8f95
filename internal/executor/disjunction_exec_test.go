package executor

import (
	"slices"
	"testing"

	"repro/internal/cardest"
	"repro/internal/expr"
	"repro/internal/optimizer"
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

// OR-group filters are applied by scans, including the re-scanned inner of
// a nested-loops join.
func TestScanAppliesDisjunction(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(60)...)
	d := mustDisj(t,
		expr.NewConst(ref("T0", "k"), expr.OpEQ, storage.Int64(1)),
		expr.NewConst(ref("T0", "k"), expr.OpEQ, storage.Int64(2)),
	)
	est, err := cardest.NewQuery(cat, []cardest.TableRef{{Table: "T0"}}, nil,
		[]expr.Disjunction{d}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(est, optimizer.PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Count by hand.
	want := 0
	data := cat.Data("T0")
	for r := 0; r < data.NumRows(); r++ {
		if v := data.Value(r, 0).Int(); v == 1 || v == 2 {
			want++
		}
	}
	if int(res.Stats.RowsProduced) != want {
		t.Errorf("rows = %d, want %d", res.Stats.RowsProduced, want)
	}
}

func TestNLInnerRescanAppliesDisjunction(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(10, 40)...)
	d := mustDisj(t,
		expr.NewConst(ref("T1", "v"), expr.OpLT, storage.Int64(10)),
		expr.NewConst(ref("T1", "v"), expr.OpGE, storage.Int64(90)),
	)
	preds := []expr.Predicate{expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k"))}
	est, err := cardest.NewQuery(cat, []cardest.TableRef{{Table: "T0"}, {Table: "T1"}}, preds,
		[]expr.Disjunction{d}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.NestedLoop}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.PlanForOrder([]string{"T0", "T1"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force with the OR applied.
	t0, t1 := cat.Data("T0"), cat.Data("T1")
	want := 0
	for a := 0; a < t0.NumRows(); a++ {
		for b := 0; b < t1.NumRows(); b++ {
			v := t1.Value(b, 1).Int()
			if t0.Value(a, 0).Int() == t1.Value(b, 0).Int() && (v < 10 || v >= 90) {
				want++
			}
		}
	}
	if int(res.Stats.RowsProduced) != want {
		t.Errorf("rows = %d, want %d", res.Stats.RowsProduced, want)
	}
	// Sort-merge path applies the disjunction at materialization too.
	o2, _ := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.SortMerge}})
	plan2, _ := o2.PlanForOrder([]string{"T0", "T1"})
	res2, err := New(cat).Execute(plan2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.RowsProduced != res.Stats.RowsProduced {
		t.Errorf("SM (%d) and NL (%d) disagree under OR filter", res2.Stats.RowsProduced, res.Stats.RowsProduced)
	}
}

func TestCompileDisjunctionUnknownColumn(t *testing.T) {
	schema := storage.MustSchema(storage.ColumnDef{Name: "t.k", Type: storage.TypeInt64})
	bad := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewConst(ref("t", "zz"), expr.OpEQ, storage.Int64(1)),
	}}
	if _, err := compileDisjunctions([]expr.Disjunction{bad}, schema); err == nil {
		t.Error("unknown column should fail to compile")
	}
	ok := expr.Disjunction{Preds: []expr.Predicate{
		expr.NewConst(ref("t", "k"), expr.OpEQ, storage.Int64(1)),
	}}
	cds, err := compileDisjunctions([]expr.Disjunction{ok}, schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable("t", schema)
	tbl.MustAppendRow(storage.Int64(1))
	tbl.MustAppendRow(storage.Int64(2))
	tbl.MustAppendRow(storage.Null(storage.TypeInt64))
	var stats Stats
	// The matching row passes; the non-matching one and NULL fail.
	if got := disjSel(tbl, cds, []int{0, 1, 2}, &stats); !slices.Equal(got, []int{0}) {
		t.Errorf("rows passing the disjunction: %v, want [0]", got)
	}
}
