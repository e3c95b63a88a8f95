package executor

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
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

// An OR-group's columns are resolved when the query is planned: one over a
// column the table's data lacks still estimates, but its plan is refused as
// a parse error naming the column; one over a column the data has passes
// only the matching row, and NULL fails it.
func TestCompileDisjunctionUnknownColumn(t *testing.T) {
	schema := storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64})
	cat := catalog.New()
	loadTable(t, cat, "t", schema, [][]storage.Value{{storage.Int64(1)}, {storage.Int64(2)}, {storage.Null(storage.TypeInt64)}})
	cat.MustAddTable(catalog.SimpleTable("t", 3, map[string]float64{"k": 2, "zz": 2}))
	plan := func(c string) optimizer.Plan {
		d := mustDisj(t, expr.NewConst(ref("t", c), expr.OpEQ, storage.Int64(1)))
		return planQuery(t, cat, []cardest.TableRef{{Table: "t"}}, nil, []expr.Disjunction{d}, nil)
	}
	if _, err := New(cat).Execute(plan("zz")); !errors.Is(err, governor.ErrParse) || !strings.Contains(err.Error(), "t.zz") {
		t.Errorf("OR-group over a column without data: err = %v, want an ErrParse naming t.zz", err)
	}
	res, err := New(cat).Execute(plan("k"))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.NumRows(); got != 1 || res.Table.Value(0, 0).Int() != 1 {
		t.Errorf("rows passing the disjunction: %d, want the one with k = 1", got)
	}
}
