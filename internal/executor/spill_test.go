package executor

import (
	"context"
	"os"
	"slices"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// spillPlan builds a two-table equijoin whose build side is far larger
// than the tiny byte budget the tests run under, planned hash-only so the
// partition policy is the only way through.
func spillPlan(t *testing.T) (*catalog.Catalog, optimizer.Plan) {
	t.Helper()
	cat := buildCatalog(t, chainSpecs(200, 260)...)
	return cat, hashPlan(t, cat, "T0", "T1")
}

// hashPlan plans l ⋈ r on column k with the hash join as the only method.
func hashPlan(t *testing.T, cat *catalog.Catalog, l, r string) optimizer.Plan {
	t.Helper()
	tabs := []cardest.TableRef{{Table: l}, {Table: r}}
	preds := []expr.Predicate{expr.NewJoin(ref(l, "k"), expr.OpEQ, ref(r, "k"))}
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.HashJoin}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// execSpill runs the plan under the given byte budget (0 = unbudgeted)
// and returns the result, the governor's tuple/row charges, and the
// governor for spill/memory introspection.
func execSpill(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, budget int64, dir string) (*Result, [2]int64, *governor.Governor) {
	t.Helper()
	gov := governor.New(context.Background(), governor.Limits{MaxMemory: budget})
	exec := NewGoverned(cat, gov)
	exec.SetSpillDir(dir)
	res, err := exec.Execute(plan)
	if err != nil {
		t.Fatalf("budget=%d: %v", budget, err)
	}
	tuples, rows, _ := gov.Usage()
	return res, [2]int64{tuples, rows}, gov
}

// dirEntries names everything in dir. The tests hand the join a directory
// through the SetSpillDir no-op and require it to stay empty.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// The spilled join must be bit-identical to the unbudgeted in-memory
// join — same rows in the same order, same TuplesScanned and Comparisons,
// same governor tuple/row charges — for every key representation of the
// kernel (native int64, Value.Key() strings for bool keys, float64 bits for
// int64-vs-float64 keys), and it must leave nothing in the directory it was
// pointed at.
func TestSpillHashJoinBitIdentical(t *testing.T) {
	intCat, intPlan := spillPlan(t)
	keyCat := catalog.New()
	loadKeyTypeTables(t, keyCat)
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		plan optimizer.Plan
	}{
		{"int64", intCat, intPlan},
		{"bool", keyCat, hashPlan(t, keyCat, "B1", "B2")},
		{"int64-vs-float64", keyCat, hashPlan(t, keyCat, "MI", "MF")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oracle, oracleUsage, _ := execSpill(t, tc.cat, tc.plan, 0, dir)
			res, usage, gov := execSpill(t, tc.cat, tc.plan, 2048, dir)
			if count, _ := gov.SpillStats(); count == 0 {
				t.Fatal("the 2 KiB budget did not force a spill")
			}
			if res.Stats.RowsProduced != oracle.Stats.RowsProduced ||
				res.Stats.TuplesScanned != oracle.Stats.TuplesScanned ||
				res.Stats.Comparisons != oracle.Stats.Comparisons {
				t.Fatalf("spilled stats (%d rows, %d tuples, %d cmp) vs in-memory (%d, %d, %d)",
					res.Stats.RowsProduced, res.Stats.TuplesScanned, res.Stats.Comparisons,
					oracle.Stats.RowsProduced, oracle.Stats.TuplesScanned, oracle.Stats.Comparisons)
			}
			if usage != oracleUsage {
				t.Fatalf("governor charges %v (spilled) vs %v (in-memory)", usage, oracleUsage)
			}
			for r := 0; r < oracle.Table.NumRows(); r++ {
				for c := 0; c < oracle.Table.Schema().NumColumns(); c++ {
					if storage.Compare(oracle.Table.Value(r, c), res.Table.Value(r, c)) != 0 {
						t.Fatalf("row %d col %d differs: %s vs %s",
							r, c, res.Table.Value(r, c), oracle.Table.Value(r, c))
					}
				}
			}
			if files := dirEntries(t, dir); len(files) != 0 {
				t.Fatalf("the partitioned join wrote to its spill dir: %v", files)
			}
		})
	}
}

// A budgeted join touches no disk, completed or torn down by a panic:
// neither the directory handed to SetSpillDir nor the process's temp
// directory gains an entry.
func TestBudgetedJoinTouchesNoDisk(t *testing.T) {
	cat, plan := spillPlan(t)
	dir, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	run := func() (spills int64) {
		gov := governor.New(context.Background(), governor.Limits{MaxMemory: 2048})
		exec := NewGoverned(cat, gov)
		exec.SetSpillDir(dir)
		defer func() {
			recover() // the injected panic; the disk check below is the assertion
			spills, _ = gov.SpillStats()
		}()
		exec.Execute(plan)
		return
	}
	check := func(when string) {
		t.Helper()
		for _, d := range []string{dir, tmp} {
			if files := dirEntries(t, d); len(files) != 0 {
				t.Fatalf("%s: %s holds %v", when, d, files)
			}
		}
	}
	if run() == 0 {
		t.Fatal("the 2 KiB budget did not engage the partition policy")
	}
	check("after a budgeted join")

	faultinject.Enable(PointJoin, faultinject.Fault{PanicValue: "boom"})
	defer faultinject.Reset()
	run()
	if faultinject.Hits(PointJoin) == 0 {
		t.Fatal("the panic was never injected")
	}
	check("after a panic in the join")
}

// The ledger is exact under the partition policy: everything the policy
// holds (routing ids, row lists, per-partition hash tables, key scratch) is
// charged and released, so a finished query's ledger holds its output and
// nothing else, and the peak is no higher than the spill-to-disk join's
// was when the partitions were files (measured there).
func TestPartitionLedger(t *testing.T) {
	sparse := chainSpecs(2000, 3000)
	for i := range sparse {
		sparse[i].Columns[0] = datagen.ColumnSpec{Name: "k", Dist: datagen.DistUniform, Domain: 100000}
	}
	denseCat, densePlan := spillPlan(t)
	sparseCat := buildCatalog(t, sparse...)
	for _, tc := range []struct {
		name       string
		cat        *catalog.Catalog
		plan       optimizer.Plan
		budget     int64
		parentPeak int64
	}{
		{"spillPlan/2KiB", denseCat, densePlan, 2048, 165312},
		{"spillPlan/4KiB", denseCat, densePlan, 4096, 165312},
		{"sparse/16KiB", sparseCat, hashPlan(t, sparseCat, "T0", "T1"), 16 << 10, 180896},
		{"sparse/64KiB", sparseCat, hashPlan(t, sparseCat, "T0", "T1"), 64 << 10, 166656},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gov := governor.New(context.Background(), governor.Limits{MaxMemory: tc.budget})
			res, err := NewGoverned(tc.cat, gov).Execute(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			if spills, _ := gov.SpillStats(); spills == 0 {
				t.Fatal("the budget did not engage the partition policy")
			}
			used, peak, _ := gov.MemoryUsage()
			if out := res.Table.ApproxBytes(); used != out {
				t.Errorf("ledger holds %d bytes after the query, its output is %d", used, out)
			}
			if peak > tc.parentPeak {
				t.Errorf("peak %d bytes, the parent commit's was %d", peak, tc.parentPeak)
			}
		})
	}
}

// mergeByOrigin restores probe order from partition outputs: three
// partitions, one of them empty, runs of different lengths, and a probe row
// that produced several output rows (duplicate origins stay together).
func TestMergeByOrigin(t *testing.T) {
	schema := storage.MustSchema(storage.ColumnDef{Name: "origin", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "seq", Type: storage.TypeInt64})
	for _, tc := range []struct {
		name    string
		origins [][]int
	}{
		{"interleaved", [][]int{{0, 3, 3, 3, 7}, {}, {1, 2, 4, 4, 9, 10}}},
		{"disjoint blocks", [][]int{{5, 6}, {0, 1, 1}, {2, 3, 4}}},
		{"one live partition", [][]int{{}, {2, 2, 5}, {}}},
		{"all empty", [][]int{{}, {}, {}}},
		{"no partitions", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs []*storage.Table
			var want []int
			for _, o := range tc.origins {
				out := storage.NewTable("p", schema)
				for seq, origin := range o {
					// seq pins the order of rows that share an origin.
					out.MustAppendRow(storage.Int64(int64(origin)), storage.Int64(int64(seq)))
				}
				outs = append(outs, out)
				want = append(want, o...)
			}
			slices.Sort(want)
			merged, err := mergeByOrigin(schema, outs, tc.origins)
			if err != nil {
				t.Fatal(err)
			}
			if merged.NumRows() != len(want) {
				t.Fatalf("%d merged rows, want %d", merged.NumRows(), len(want))
			}
			for r, origin := range want {
				if got := merged.Value(r, 0).Int(); got != int64(origin) {
					t.Fatalf("row %d has origin %d, want %d", r, got, origin)
				}
				if r > 0 && merged.Value(r-1, 0).Int() == int64(origin) && merged.Value(r, 1).Int() != merged.Value(r-1, 1).Int()+1 {
					t.Fatalf("row %d: rows of origin %d left their partition's order", r, origin)
				}
			}
		})
	}
}

// Unbudgeted queries must never take the partition policy, whatever the
// data size: the budget is the only trigger.
func TestNoSpillWithoutBudget(t *testing.T) {
	cat, plan := spillPlan(t)
	dir := t.TempDir()
	_, _, gov := execSpill(t, cat, plan, 0, dir)
	if count, bytes := gov.SpillStats(); count != 0 || bytes != 0 {
		t.Fatalf("unbudgeted query spilled: %d spills, %d bytes", count, bytes)
	}
	if files := dirEntries(t, dir); len(files) != 0 {
		t.Fatalf("unbudgeted query wrote to its spill dir: %v", files)
	}
}

// A datagen spec sanity check for the spill tests: the generated build
// side really is bigger than the budget the tests use.
func TestSpillFixtureOversized(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(200, 260)...)
	if b := cat.Data("T1").ApproxBytes(); b <= 2048 {
		t.Fatalf("fixture build side is only %d bytes; the spill tests' 2 KiB budget would not engage", b)
	}
}

// Routing drops NULL keys, and re-routing one partition under the next
// depth's salt spreads it over every sub-partition — a salt that only
// permuted the partitions would leave re-partitioning a skewed partition
// with nothing to do.
func TestRouteResplitsUnderNewSalt(t *testing.T) {
	tbl := storage.NewTable("k", storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64}))
	tbl.MustAppendRow(storage.Null(storage.TypeInt64))
	for k := int64(0); k < 8000; k++ {
		tbl.MustAppendRow(storage.Int64(k))
	}
	ids := route(tbl, 0, nil, 2, 0, false)
	if ids[0] != noPart {
		t.Fatalf("NULL key routed to partition %d", ids[0])
	}
	rows := pick(ids, nil, 0)
	if len(rows) < 3000 || len(rows) > 5000 {
		t.Fatalf("two-way split put %d of 8000 keys in partition 0", len(rows))
	}
	sub := route(tbl, 0, rows, 4, 1, false)
	for p := uint8(0); p < 4; p++ {
		if n := len(pick(sub, rows, p)); n < len(rows)/8 || n > len(rows)/2 {
			t.Errorf("re-split sub-partition %d holds %d of %d rows", p, n, len(rows))
		}
	}
}
