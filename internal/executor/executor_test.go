package executor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

func ref(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }

// buildCatalog generates small tables, analyzes them, and returns the
// catalog with data attached.
func buildCatalog(t *testing.T, specs ...datagen.TableSpec) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for i, spec := range specs {
		tbl, err := datagen.Generate(spec, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// bruteForceJoinCount is the brute-force evaluator's result size for the
// conjunctive query over the given FROM items.
func bruteForceJoinCount(t *testing.T, cat *catalog.Catalog, aliases []string, tables []string, preds []expr.Predicate) int {
	t.Helper()
	tabs := make([]cardest.TableRef, len(tables))
	for i := range tables {
		tabs[i] = cardest.TableRef{Alias: aliases[i], Table: tables[i]}
	}
	m, _, err := bruteforce.Of(cat, tabs, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return int(m.Rows)
}

func chainSpecs(rows ...int) []datagen.TableSpec {
	specs := make([]datagen.TableSpec, len(rows))
	for i, n := range rows {
		specs[i] = datagen.TableSpec{
			Name: fmt.Sprintf("T%d", i),
			Rows: n,
			Columns: []datagen.ColumnSpec{
				{Name: "k", Dist: datagen.DistUniform, Domain: 10},
				{Name: "v", Dist: datagen.DistUniform, Domain: 100},
			},
		}
	}
	return specs
}

// chainSpec2 is a two-join-column table spec for residual-predicate tests.
func chainSpec2(name string, rows int) datagen.TableSpec {
	return datagen.TableSpec{Name: name, Rows: rows, Columns: []datagen.ColumnSpec{
		{Name: "k", Dist: datagen.DistUniform, Domain: 8},
		{Name: "u", Dist: datagen.DistUniform, Domain: 4},
	}}
}

func planAndRun(t *testing.T, cat *catalog.Catalog, tabs []cardest.TableRef, preds []expr.Predicate, methods []optimizer.JoinMethod, order []string) *Result {
	t.Helper()
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(est, optimizer.Options{Methods: methods})
	if err != nil {
		t.Fatal(err)
	}
	var plan optimizer.Plan
	if order != nil {
		plan, err = o.PlanForOrder(order)
	} else {
		plan, err = o.BestPlan()
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScanWithFilter(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(50)...)
	preds := []expr.Predicate{expr.NewConst(ref("T0", "k"), expr.OpLT, storage.Int64(5))}
	res := planAndRun(t, cat, []cardest.TableRef{{Table: "T0"}}, preds, nil, nil)
	want := bruteForceJoinCount(t, cat, []string{"T0"}, []string{"T0"}, preds)
	if int(res.Stats.RowsProduced) != want {
		t.Errorf("filtered scan rows = %d, want %d", res.Stats.RowsProduced, want)
	}
	if res.Stats.TuplesScanned != 50 {
		t.Errorf("tuples scanned = %d, want 50", res.Stats.TuplesScanned)
	}
	// Output columns must be alias-qualified.
	if res.Table.Schema().ColumnIndex("T0.k") < 0 {
		t.Errorf("output schema %s missing qualified column", res.Table.Schema())
	}
}

func TestTwoWayJoinAllMethodsAgree(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(40, 60)...)
	preds := []expr.Predicate{
		expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k")),
		expr.NewConst(ref("T0", "v"), expr.OpLT, storage.Int64(50)),
	}
	tabs := []cardest.TableRef{{Table: "T0"}, {Table: "T1"}}
	want := bruteForceJoinCount(t, cat, []string{"T0", "T1"}, []string{"T0", "T1"}, preds)
	for _, m := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge, optimizer.HashJoin} {
		res := planAndRun(t, cat, tabs, preds, []optimizer.JoinMethod{m}, []string{"T0", "T1"})
		if int(res.Stats.RowsProduced) != want {
			t.Errorf("%s join rows = %d, want %d", m, res.Stats.RowsProduced, want)
		}
	}
}

func TestThreeWayJoinMatchesBruteForce(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(20, 25, 30)...)
	preds := []expr.Predicate{
		expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k")),
		expr.NewJoin(ref("T1", "k"), expr.OpEQ, ref("T2", "k")),
		expr.NewConst(ref("T2", "v"), expr.OpGE, storage.Int64(20)),
	}
	tabs := []cardest.TableRef{{Table: "T0"}, {Table: "T1"}, {Table: "T2"}}
	want := bruteForceJoinCount(t, cat, []string{"T0", "T1", "T2"}, []string{"T0", "T1", "T2"}, preds)
	for _, methods := range [][]optimizer.JoinMethod{
		{optimizer.NestedLoop},
		{optimizer.SortMerge},
		{optimizer.HashJoin},
		{optimizer.NestedLoop, optimizer.SortMerge},
	} {
		res := planAndRun(t, cat, tabs, preds, methods, nil)
		if int(res.Stats.RowsProduced) != want {
			t.Errorf("methods %v rows = %d, want %d", methods, res.Stats.RowsProduced, want)
		}
	}
}

// Two equality predicates between the same pair of tables: one becomes the
// physical key, the other must be applied as a residual. B, the inner, is
// an unfiltered base table, so the hash join applies the residual to the
// runs of B's shared build (storage.Table.Memo).
func TestResidualPredicatesApplied(t *testing.T) {
	for _, c := range []struct {
		a, b       datagen.TableSpec
		key, other [2]string // A's and B's columns
	}{
		{datagen.TableSpec{Name: "A", Rows: 30, Columns: []datagen.ColumnSpec{
			{Name: "x", Dist: datagen.DistUniform, Domain: 5},
			{Name: "y", Dist: datagen.DistUniform, Domain: 5},
		}}, datagen.TableSpec{Name: "B", Rows: 30, Columns: []datagen.ColumnSpec{
			{Name: "p", Dist: datagen.DistUniform, Domain: 5},
			{Name: "q", Dist: datagen.DistUniform, Domain: 5},
		}}, [2]string{"x", "p"}, [2]string{"y", "q"}},
		{chainSpec2("A", 30), chainSpec2("B", 50), [2]string{"k", "k"}, [2]string{"u", "u"}},
	} {
		cat := buildCatalog(t, c.a, c.b)
		preds := []expr.Predicate{
			expr.NewJoin(ref("A", c.key[0]), expr.OpEQ, ref("B", c.key[1])),
			expr.NewJoin(ref("A", c.other[0]), expr.OpEQ, ref("B", c.other[1])),
		}
		tabs := []cardest.TableRef{{Table: "A"}, {Table: "B"}}
		want := bruteForceJoinCount(t, cat, []string{"A", "B"}, []string{"A", "B"}, preds)
		for _, m := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge, optimizer.HashJoin} {
			res := planAndRun(t, cat, tabs, preds, []optimizer.JoinMethod{m}, []string{"A", "B"})
			if int(res.Stats.RowsProduced) != want {
				t.Errorf("B has %d rows: %s with residual rows = %d, want %d", c.b.Rows, m, res.Stats.RowsProduced, want)
			}
		}
	}
}

func TestNullKeysNeverMatch(t *testing.T) {
	schema := storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64})
	a := storage.NewTable("A", schema)
	a.MustAppendRow(storage.Int64(1))
	a.MustAppendRow(storage.Null(storage.TypeInt64))
	b := storage.NewTable("B", schema)
	b.MustAppendRow(storage.Int64(1))
	b.MustAppendRow(storage.Null(storage.TypeInt64))
	cat := catalog.New()
	if _, err := cat.Analyze(a, catalog.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Analyze(b, catalog.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	preds := []expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))}
	tabs := []cardest.TableRef{{Table: "A"}, {Table: "B"}}
	for _, m := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge, optimizer.HashJoin} {
		res := planAndRun(t, cat, tabs, preds, []optimizer.JoinMethod{m}, []string{"A", "B"})
		if res.Stats.RowsProduced != 1 {
			t.Errorf("%s: NULL keys matched; rows = %d, want 1", m, res.Stats.RowsProduced)
		}
	}
}

func TestCartesianProduct(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(7, 11)...)
	res := planAndRun(t, cat, []cardest.TableRef{{Table: "T0"}, {Table: "T1"}}, nil, nil, nil)
	if res.Stats.RowsProduced != 77 {
		t.Errorf("cartesian rows = %d, want 77", res.Stats.RowsProduced)
	}
}

func TestNestedLoopRescansInner(t *testing.T) {
	// 10 outer rows × 30-row inner base: the inner must be visited 300
	// times regardless of the filter, plus the outer's own scan.
	cat := buildCatalog(t, chainSpecs(10, 30)...)
	preds := []expr.Predicate{expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k"))}
	res := planAndRun(t, cat, []cardest.TableRef{{Table: "T0"}, {Table: "T1"}},
		preds, []optimizer.JoinMethod{optimizer.NestedLoop}, []string{"T0", "T1"})
	if res.Stats.TuplesScanned != 10+10*30 {
		t.Errorf("NL tuples scanned = %d, want %d", res.Stats.TuplesScanned, 10+10*30)
	}
}

func TestCountHelper(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(12)...)
	est, _ := cardest.New(cat, []cardest.TableRef{{Table: "T0"}}, nil, cardest.ELS())
	o, _ := optimizer.New(est, optimizer.PaperOptions())
	plan, _ := o.BestPlan()
	n, stats, err := New(cat).Count(plan)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 || stats.RowsProduced != 12 {
		t.Errorf("Count = %d, want 12", n)
	}
	// Deterministic work counters only — wall-clock may round to zero on
	// coarse clocks.
	if stats.TuplesScanned != 12 {
		t.Errorf("tuples scanned = %d, want 12", stats.TuplesScanned)
	}
}

func TestExecuteErrors(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 10, map[string]float64{"x": 10}))
	if _, err := New(cat).Execute(nil); err == nil {
		t.Error("nil plan should error")
	}
	// Stats registered but no data.
	est, _ := cardest.New(cat, []cardest.TableRef{{Table: "A"}}, nil, cardest.ELS())
	o, _ := optimizer.New(est, optimizer.PaperOptions())
	plan, _ := o.BestPlan()
	if _, err := New(cat).Execute(plan); err == nil {
		t.Error("missing data table should error")
	}
}

// Property: for random chain queries and random method mixes, every plan
// the optimizer produces executes to the brute-force count.
func TestExecutionMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(2)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = 5 + rng.Intn(25)
		}
		cat := buildCatalog(t, chainSpecs(rows...)...)
		var tabs []cardest.TableRef
		var aliases, names []string
		var preds []expr.Predicate
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("T%d", i)
			tabs = append(tabs, cardest.TableRef{Table: name})
			aliases = append(aliases, name)
			names = append(names, name)
			if i > 0 {
				preds = append(preds, expr.NewJoin(ref(name, "k"), expr.OpEQ, ref(fmt.Sprintf("T%d", i-1), "k")))
			}
		}
		if rng.Intn(2) == 0 {
			preds = append(preds, expr.NewConst(ref("T0", "v"), expr.OpLT, storage.Int64(int64(rng.Intn(100)))))
		}
		want := bruteForceJoinCount(t, cat, aliases, names, preds)
		methodSets := [][]optimizer.JoinMethod{
			{optimizer.NestedLoop},
			{optimizer.SortMerge},
			{optimizer.NestedLoop, optimizer.SortMerge, optimizer.HashJoin},
		}
		for _, ms := range methodSets {
			res := planAndRun(t, cat, tabs, preds, ms, nil)
			if int(res.Stats.RowsProduced) != want {
				t.Fatalf("trial %d methods %v: rows = %d, want %d", trial, ms, res.Stats.RowsProduced, want)
			}
		}
	}
}
