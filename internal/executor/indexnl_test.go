package executor

import (
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// chainSpec2 is a two-join-column table spec for residual-predicate tests.
func chainSpec2(name string, rows int) datagen.TableSpec {
	return datagen.TableSpec{Name: name, Rows: rows, Columns: []datagen.ColumnSpec{
		{Name: "k", Dist: datagen.DistUniform, Domain: 8},
		{Name: "u", Dist: datagen.DistUniform, Domain: 4},
	}}
}

// planTwo plans O ⋈ I in that order under the one join method m.
func planTwo(t *testing.T, cat *catalog.Catalog, preds []expr.Predicate, m optimizer.JoinMethod) *optimizer.Join {
	t.Helper()
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "O"}, {Table: "I"}}, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{m}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.PlanForOrder([]string{"O", "I"})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := plan.(*optimizer.Join)
	if !ok || j.Method != m {
		t.Fatalf("planned %v, want %s", plan, m)
	}
	return j
}

// An index nested-loops join O ⋈ I on k, I indexed on k, returns the rows
// of the nested-loops and the hash plan of the same query, in the same
// order (outer row by outer row, inner rows ascending). Its counters are
// one index search per outer row and one visit per fetched inner row, which
// a linear scan of I for each outer key (equal under storage.Compare, NULL
// never equal) counts independently; each fetched row is then filtered by
// I's scan predicates. The cases cover NULL keys on both sides, outer keys
// I lacks, an empty I, int64 keys on a dense and a hashed build, an int64
// outer key against a float64 indexed column, string keys and bool keys.
func TestIndexNLMatchesOtherMethods(t *testing.T) {
	ints := func(vs ...int64) []storage.Value {
		out := make([]storage.Value, len(vs))
		for i, v := range vs {
			out[i] = storage.Int64(v)
		}
		return out
	}
	strs := []storage.Value{storage.String64("a"), storage.String64("b"), storage.String64("c"), storage.String64("zz")}
	innerStrs := []storage.Value{storage.String64("b"), storage.String64("c"), storage.String64("d")}
	bools := []storage.Value{storage.Bool(true), storage.Bool(false), storage.Bool(true)}
	floats := []storage.Value{storage.Float64(1), storage.Float64(2), storage.Float64(2.5)}
	for _, c := range []struct {
		name         string
		outer, inner []storage.Value // keyTypeRows' key cycles; every 7th row NULL
		filter       []expr.Predicate
		empty        bool // I has no rows
	}{
		{name: "int64 dense", outer: ints(1, 2, 3, 4, 5), inner: ints(2, 3, 9)},
		{name: "int64, empty index", outer: ints(1, 2), inner: ints(1), empty: true},
		{name: "int64 hashed", outer: ints(-7, 1<<40, 3, 12), inner: ints(1<<40, -7, 1<<50)},
		{name: "int64 outer, float64 index", outer: ints(1, 2, 3), inner: floats},
		{name: "string", outer: strs, inner: innerStrs},
		{name: "bool", outer: bools, inner: bools},
		{name: "int64, inner filter", outer: ints(1, 2, 3, 4), inner: ints(1, 2, 3),
			filter: []expr.Predicate{expr.NewConst(ref("I", "v"), expr.OpLT, storage.Int64(150))}},
	} {
		t.Run(c.name, func(t *testing.T) {
			schemaOf := func(k storage.Type) *storage.Schema {
				return storage.MustSchema(storage.ColumnDef{Name: "k", Type: k}, storage.ColumnDef{Name: "v", Type: storage.TypeInt64})
			}
			cat := catalog.New()
			outerRows, innerRows := keyTypeRows(120, c.outer), keyTypeRows(200, c.inner)
			if c.empty {
				innerRows = nil
			}
			loadTable(t, cat, "O", schemaOf(c.outer[0].Type()), outerRows)
			loadTable(t, cat, "I", schemaOf(c.inner[0].Type()), innerRows)
			if err := cat.BuildIndex("I", "k"); err != nil {
				t.Fatal(err)
			}
			preds := append([]expr.Predicate{expr.NewJoin(ref("O", "k"), expr.OpEQ, ref("I", "k"))}, c.filter...)
			run := func(m optimizer.JoinMethod) *Result {
				res, err := New(cat).Execute(planTwo(t, cat, preds, m))
				if err != nil {
					t.Fatalf("%s: %v", m, err)
				}
				return res
			}
			got := run(optimizer.IndexNL)
			for _, m := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.HashJoin} {
				want := run(m)
				if got.Table.NumRows() != want.Table.NumRows() {
					t.Fatalf("IDXNL %d rows, %s %d", got.Table.NumRows(), m, want.Table.NumRows())
				}
				for r := 0; r < want.Table.NumRows(); r++ {
					for col := 0; col < want.Table.Schema().NumColumns(); col++ {
						if g, w := got.Table.Value(r, col), want.Table.Value(r, col); g.Key() != w.Key() {
							t.Fatalf("row %d col %d: IDXNL %s, %s %s", r, col, g, m, w)
						}
					}
				}
			}
			// The reference: the outer's unfiltered scan, then per outer row
			// one search and a visit to each inner row of equal key, each
			// filtered once.
			tuples, comparisons := int64(len(outerRows)), int64(len(outerRows))
			for _, o := range outerRows {
				for _, i := range innerRows {
					if !o[0].IsNull() && !i[0].IsNull() && storage.Compare(o[0], i[0]) == 0 {
						tuples++
						comparisons += int64(len(c.filter))
					}
				}
			}
			if got.Stats.TuplesScanned != tuples || got.Stats.Comparisons != comparisons {
				t.Errorf("IDXNL tuples %d, comparisons %d; want %d, %d", got.Stats.TuplesScanned, got.Stats.Comparisons, tuples, comparisons)
			}
			if fetched := tuples - int64(len(outerRows)); got.Stats.RowsProduced == 0 && !c.empty ||
				c.filter != nil && got.Stats.RowsProduced == fetched {
				t.Errorf("IDXNL produced %d rows of %d fetched: the case has no teeth", got.Stats.RowsProduced, fetched)
			}
		})
	}
}

// An index nested-loops join allocates per join, not per outer row: the
// shared build is probed in place and each run is copied into one buffer
// the whole join reuses.
func TestIndexNLAllocationsFlatInOuterRows(t *testing.T) {
	cat := catalog.New()
	schema := storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64})
	rows := func(n int) [][]storage.Value {
		out := make([][]storage.Value, n)
		for i := range out {
			out[i] = []storage.Value{storage.Int64(int64(i % 50))}
		}
		return out
	}
	loadTable(t, cat, "I", schema, rows(100)) // every key 0..49 twice
	if err := cat.BuildIndex("I", "k"); err != nil {
		t.Fatal(err)
	}
	var allocs [2]float64
	for i, n := range []int{10, 1000} {
		loadTable(t, cat, "O", schema, rows(n))
		plan := planTwo(t, cat, []expr.Predicate{expr.NewJoin(ref("O", "k"), expr.OpEQ, ref("I", "k"))}, optimizer.IndexNL)
		allocs[i] = testing.AllocsPerRun(20, func() {
			if rows, _, err := New(cat).Count(plan); err != nil || rows != int64(2*n) {
				t.Fatalf("%d outer rows: count %d, %v; want %d", n, rows, err, 2*n)
			}
		})
	}
	t.Logf("allocations: %v over 10 outer rows, %v over 1,000", allocs[0], allocs[1])
	if allocs[1] > allocs[0]+8 {
		t.Errorf("1,000 outer rows allocated %v, 10 outer rows %v: want at most 8 more", allocs[1], allocs[0])
	}
}

func TestIndexNLSkippedWithoutIndex(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(10, 20)...)
	preds := []expr.Predicate{expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k"))}
	tabs := []cardest.TableRef{{Table: "T0"}, {Table: "T1"}}
	est, _ := cardest.New(cat, tabs, preds, cardest.ELS())
	// IndexNL is the only allowed method but no index exists: planning the
	// join must fail (no applicable method).
	o, _ := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.IndexNL}})
	if _, err := o.PlanForOrder([]string{"T0", "T1"}); err == nil {
		t.Error("IndexNL without an index should be inapplicable")
	}
	// With NL as fallback, planning succeeds and uses NL.
	o2, _ := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.IndexNL, optimizer.NestedLoop}})
	plan, err := o2.PlanForOrder([]string{"T0", "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.(*optimizer.Join).Method != optimizer.NestedLoop {
		t.Errorf("expected NL fallback, got %v", plan)
	}
}

func TestIndexNLWithResidualPredicates(t *testing.T) {
	// Two equality predicates to the same inner table: one becomes the
	// probe key, the other a residual.
	cat := buildCatalog(t,
		chainSpec2("A", 30),
		chainSpec2("B", 50),
	)
	if err := cat.BuildIndex("B", "k"); err != nil {
		t.Fatal(err)
	}
	preds := []expr.Predicate{
		expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k")),
		expr.NewJoin(ref("A", "u"), expr.OpEQ, ref("B", "u")),
	}
	tabs := []cardest.TableRef{{Table: "A"}, {Table: "B"}}
	want := bruteForceJoinCount(t, cat, []string{"A", "B"}, []string{"A", "B"}, preds)
	est, _ := cardest.New(cat, tabs, preds, cardest.ELS())
	o, _ := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.IndexNL}})
	plan, err := o.PlanForOrder([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Stats.RowsProduced) != want {
		t.Errorf("rows = %d, want %d", res.Stats.RowsProduced, want)
	}
}

func TestIndexNLErrors(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(5, 5)...)
	// Hand-build a broken IndexNL plan: no index registered.
	preds := []expr.Predicate{expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k"))}
	tabs := []cardest.TableRef{{Table: "T0"}, {Table: "T1"}}
	est, _ := cardest.New(cat, tabs, preds, cardest.ELS())
	o, _ := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.NestedLoop}})
	plan, _ := o.PlanForOrder([]string{"T0", "T1"})
	j := plan.(*optimizer.Join)
	j.Method = optimizer.IndexNL
	if _, err := New(cat).Execute(j); err == nil {
		t.Error("IndexNL without IndexColumn should error")
	}
	j.IndexColumn = "k"
	if _, err := New(cat).Execute(j); err == nil {
		t.Error("IndexNL without a registered index should error")
	}
}
