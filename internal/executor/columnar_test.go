package executor

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// loadTable materializes hand-built rows into a fresh analyzed table.
func loadTable(t *testing.T, cat *catalog.Catalog, name string, schema *storage.Schema, rows [][]storage.Value) {
	t.Helper()
	tbl := storage.NewTable(name, schema)
	for _, row := range rows {
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// planQuery plans the query over the given method repertoire.
func planQuery(t testing.TB, cat *catalog.Catalog, tabs []cardest.TableRef,
	preds []expr.Predicate, disjs []expr.Disjunction, methods []optimizer.JoinMethod) optimizer.Plan {
	t.Helper()
	est, err := cardest.NewQuery(cat, tabs, preds, disjs, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: methods})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// columnarDiff plans the query and executes it with the unbudgeted row
// engine (the oracle), then with the columnar engine unbudgeted and under a
// byte budget, and with the row engine under the same budget. A hash-join
// repertoire gets 4 KiB, so build sides that overflow it take the Grace
// partition policy; a repertoire with sort-merge gets 1 MiB, enough for the
// sort scratch, which cannot be partitioned. Rows, row order, work counters,
// and governor charges must be bit-identical. Returns the oracle result for
// additional assertions.
func columnarDiff(t *testing.T, cat *catalog.Catalog, tabs []cardest.TableRef,
	preds []expr.Predicate, disjs []expr.Disjunction, methods []optimizer.JoinMethod) *Result {
	t.Helper()
	plan := planQuery(t, cat, tabs, preds, disjs, methods)
	budget := int64(4096)
	if slices.Contains(methods, optimizer.SortMerge) {
		budget = 1 << 20
	}
	dir := t.TempDir()
	run := func(columnar bool, budget int64) (*Result, [2]int64) {
		gov := governor.New(context.Background(), governor.Limits{
			DisableColumnar: !columnar, MaxMemory: budget})
		e := NewGoverned(cat, gov)
		e.SetSpillDir(dir)
		res, err := e.Execute(plan)
		if err != nil {
			t.Fatalf("columnar=%v budget=%d: %v", columnar, budget, err)
		}
		tuples, rows, _ := gov.Usage()
		return res, [2]int64{tuples, rows}
	}
	row, rowUsage := run(false, 0)
	for _, tc := range []struct {
		columnar bool
		budget   int64
	}{
		{true, 0}, {true, budget}, {false, budget},
	} {
		col, colUsage := run(tc.columnar, tc.budget)
		if col.Stats.RowsProduced != row.Stats.RowsProduced ||
			col.Stats.TuplesScanned != row.Stats.TuplesScanned ||
			col.Stats.Comparisons != row.Stats.Comparisons {
			t.Fatalf("%+v: (rows %d, tuples %d, cmp %d) vs oracle (%d, %d, %d)",
				tc, col.Stats.RowsProduced, col.Stats.TuplesScanned, col.Stats.Comparisons,
				row.Stats.RowsProduced, row.Stats.TuplesScanned, row.Stats.Comparisons)
		}
		if colUsage != rowUsage {
			t.Fatalf("%+v: governor usage %v vs oracle %v", tc, colUsage, rowUsage)
		}
		if col.Table.NumRows() != row.Table.NumRows() {
			t.Fatalf("%+v: %d vs %d result rows", tc, col.Table.NumRows(), row.Table.NumRows())
		}
		for r := 0; r < row.Table.NumRows(); r++ {
			for c := 0; c < row.Table.Schema().NumColumns(); c++ {
				if col.Table.Value(r, c).Key() != row.Table.Value(r, c).Key() {
					t.Fatalf("%+v: row %d col %d: %s vs oracle %s",
						tc, r, c, col.Table.Value(r, c), row.Table.Value(r, c))
				}
			}
		}
	}
	if files := dirEntries(t, dir); len(files) != 0 {
		t.Fatalf("the joins wrote to their spill dir: %v", files)
	}
	return row
}

var hashOnly = []optimizer.JoinMethod{optimizer.HashJoin}

// Float kernels: -0.0 joins and filters like 0.0 (Compare and the hash
// key normalization agree), and NULLs never match a predicate or a join
// key.
func TestColumnarFloatKernel(t *testing.T) {
	cat := catalog.New()
	fcol := storage.MustSchema(storage.ColumnDef{Name: "f", Type: storage.TypeFloat64},
		storage.ColumnDef{Name: "g", Type: storage.TypeFloat64})
	neg := math.Copysign(0, -1)
	loadTable(t, cat, "F1", fcol, [][]storage.Value{
		{storage.Float64(neg), storage.Float64(1.5)},
		{storage.Float64(0.0), storage.Float64(-2.5)},
		{storage.Float64(1.25), storage.Float64(0.5)},
		{storage.Null(storage.TypeFloat64), storage.Float64(3.0)},
		{storage.Float64(2.5), storage.Null(storage.TypeFloat64)},
	})
	loadTable(t, cat, "F2", fcol, [][]storage.Value{
		{storage.Float64(0.0), storage.Float64(0.0)},
		{storage.Float64(neg), storage.Float64(1.0)},
		{storage.Float64(2.5), storage.Float64(2.0)},
		{storage.Null(storage.TypeFloat64), storage.Float64(4.0)},
	})
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "F1"}, {Table: "F2"}},
		[]expr.Predicate{
			expr.NewJoin(ref("F1", "f"), expr.OpEQ, ref("F2", "f")),
			expr.NewConst(ref("F1", "g"), expr.OpGT, storage.Float64(-3)),
		}, nil, hashOnly)
	// Oracle: -0.0 and 0.0 cross-match (2×2 pairs); the 2.5 match dies on
	// its NULL g (NULL fails every predicate); NULL keys never join.
	if res.Stats.RowsProduced != 4 {
		t.Fatalf("rows = %d, want 4", res.Stats.RowsProduced)
	}
}

// String kernels: equality joins and range predicates over strings.
func TestColumnarStringKernel(t *testing.T) {
	cat := catalog.New()
	scol := storage.MustSchema(storage.ColumnDef{Name: "s", Type: storage.TypeString},
		storage.ColumnDef{Name: "u", Type: storage.TypeString})
	loadTable(t, cat, "S1", scol, [][]storage.Value{
		{storage.String64("apple"), storage.String64("x")},
		{storage.String64("pear"), storage.String64("y")},
		{storage.String64("fig"), storage.String64("z")},
		{storage.Null(storage.TypeString), storage.String64("w")},
		{storage.String64(""), storage.String64("v")},
	})
	loadTable(t, cat, "S2", scol, [][]storage.Value{
		{storage.String64("fig"), storage.String64("a")},
		{storage.String64("apple"), storage.String64("b")},
		{storage.String64("apple"), storage.String64("c")},
		{storage.String64(""), storage.String64("d")},
		{storage.Null(storage.TypeString), storage.String64("e")},
	})
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "S1"}, {Table: "S2"}},
		[]expr.Predicate{
			expr.NewJoin(ref("S1", "s"), expr.OpEQ, ref("S2", "s")),
			expr.NewConst(ref("S1", "s"), expr.OpLT, storage.String64("zzz")),
		}, nil, hashOnly)
	// apple×2 + fig + ""×1; NULLs never join.
	if res.Stats.RowsProduced != 4 {
		t.Fatalf("rows = %d, want 4", res.Stats.RowsProduced)
	}
}

// Int64 kernels must compare as integers: values beyond 2^53 that would
// collide under float64 rounding stay distinct.
func TestColumnarInt64PrecisionKernel(t *testing.T) {
	cat := catalog.New()
	icol := storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64})
	big := int64(1) << 53
	loadTable(t, cat, "I1", icol, [][]storage.Value{
		{storage.Int64(big)}, {storage.Int64(big + 1)}, {storage.Int64(7)},
	})
	loadTable(t, cat, "I2", icol, [][]storage.Value{
		{storage.Int64(big + 1)}, {storage.Int64(7)},
	})
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "I1"}, {Table: "I2"}},
		[]expr.Predicate{
			expr.NewJoin(ref("I1", "k"), expr.OpEQ, ref("I2", "k")),
			expr.NewConst(ref("I1", "k"), expr.OpGE, storage.Int64(0)),
		}, nil, hashOnly)
	if res.Stats.RowsProduced != 2 {
		t.Fatalf("rows = %d, want 2 (2^53 and 2^53+1 must not collide)", res.Stats.RowsProduced)
	}
}

// keyTypeRows builds n two-column rows (k, v): k cycles through keys
// (NULL every 7th row), v is the row number. Hundreds of rows make the
// chunk-parallel probe and, under columnarDiff's budget, the partition policy
// engage.
func keyTypeRows(n int, keys []storage.Value) [][]storage.Value {
	rows := make([][]storage.Value, n)
	for i := range rows {
		k := keys[i%len(keys)]
		if i%7 == 3 {
			k = storage.Null(k.Type())
		}
		rows[i] = []storage.Value{k, storage.Int64(int64(i))}
	}
	return rows
}

// loadKeyTypeTables registers the bool-key pair B1/B2 and the int64-key MI
// against float64-key MF. Every table's build side overflows a 4 KiB
// budget.
func loadKeyTypeTables(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	schemaOf := func(k storage.Type) *storage.Schema {
		return storage.MustSchema(storage.ColumnDef{Name: "k", Type: k}, storage.ColumnDef{Name: "v", Type: storage.TypeInt64})
	}
	bools := []storage.Value{storage.Bool(true), storage.Bool(false), storage.Bool(true)}
	loadTable(t, cat, "B1", schemaOf(storage.TypeBool), keyTypeRows(300, bools))
	loadTable(t, cat, "B2", schemaOf(storage.TypeBool), keyTypeRows(400, bools))
	ints := []storage.Value{storage.Int64(1), storage.Int64(2), storage.Int64(3)}
	floats := []storage.Value{storage.Float64(1), storage.Float64(2), storage.Float64(2.5)}
	loadTable(t, cat, "MI", schemaOf(storage.TypeInt64), keyTypeRows(300, ints))
	loadTable(t, cat, "MF", schemaOf(storage.TypeFloat64), keyTypeRows(400, floats))
}

// Bool join keys have no native hash specialization: they run through the
// same typed kernel keyed by Value.Key() strings, and must agree with the
// row oracle as one partition and partitioned. A residual over v rides along
// to pin the comparison counters.
func TestColumnarBoolKey(t *testing.T) {
	cat := catalog.New()
	loadKeyTypeTables(t, cat)
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "B1"}, {Table: "B2"}},
		[]expr.Predicate{
			expr.NewJoin(ref("B1", "k"), expr.OpEQ, ref("B2", "k")),
			expr.NewJoin(ref("B1", "v"), expr.OpLT, ref("B2", "v")),
		}, nil, hashOnly)
	if res.Stats.RowsProduced == 0 {
		t.Fatal("bool-key join produced no rows; the case has no teeth")
	}
}

// Mixed-type join keys (int64 vs float64) take the Value.Key() kernel too;
// results and counters agree with the row oracle (typed keys never
// cross-match in either engine).
func TestColumnarMixedTypeKey(t *testing.T) {
	cat := catalog.New()
	loadKeyTypeTables(t, cat)
	res := columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "MI"}, {Table: "MF"}},
		[]expr.Predicate{expr.NewJoin(ref("MI", "k"), expr.OpEQ, ref("MF", "k"))},
		nil, hashOnly)
	if res.Stats.RowsProduced != 0 {
		t.Fatalf("int64 keys matched float64 keys: %d rows", res.Stats.RowsProduced)
	}
}

// OR-group filters run through the columnar disjunction path with the
// same short-circuit comparison counting as the row engine.
func TestColumnarDisjunctions(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(120, 80)...)
	d := mustDisj(t,
		expr.NewConst(ref("T0", "v"), expr.OpLT, storage.Int64(10)),
		expr.NewConst(ref("T0", "v"), expr.OpGE, storage.Int64(90)),
		expr.NewConst(ref("T0", "k"), expr.OpEQ, storage.Int64(3)),
	)
	columnarDiff(t, cat,
		[]cardest.TableRef{{Table: "T0"}, {Table: "T1"}},
		[]expr.Predicate{expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k"))},
		[]expr.Disjunction{d}, hashOnly)
}

// DisableColumnar forces the row engine even when columnar is available.
func TestColumnarGovernorEscapeHatch(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(100)...)
	est, err := cardest.NewQuery(cat, []cardest.TableRef{{Table: "T0"}},
		[]expr.Predicate{expr.NewConst(ref("T0", "v"), expr.OpLT, storage.Int64(50))}, nil, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	gov := governor.New(context.Background(), governor.Limits{DisableColumnar: true})
	e := NewGoverned(cat, gov)
	if e.useColumnar() {
		t.Fatal("Limits.DisableColumnar did not reach the executor")
	}
	if _, err := e.Execute(plan); err != nil {
		t.Fatal(err)
	}
}
