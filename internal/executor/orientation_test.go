package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// orientCase is one key kind TestHashJoinOrientation joins L and R on: key
// renders domain value d of row row in a column of type typ.
type orientCase struct {
	name       string
	ltyp, rtyp storage.Type
	key        func(typ storage.Type, d, row int) storage.Value
}

func orientCases() []orientCase {
	ints := func(shift int) func(storage.Type, int, int) storage.Value {
		return func(_ storage.Type, d, _ int) storage.Value { return storage.Int64(int64(d) << shift) }
	}
	// Domain value 0 is −0.0 on odd rows and 1 is NaN, both ways round in the
	// int64 vs float64 join.
	numeric := func(typ storage.Type, d, row int) storage.Value {
		switch {
		case typ == storage.TypeInt64:
			return storage.Int64(int64(d))
		case d == 0 && row%2 == 1:
			return storage.Float64(math.Copysign(0, -1))
		case d == 1:
			return storage.Float64(math.NaN())
		}
		return storage.Float64(float64(d))
	}
	return []orientCase{
		{"int64 dense", storage.TypeInt64, storage.TypeInt64, ints(0)},
		{"int64 hashed", storage.TypeInt64, storage.TypeInt64, ints(20)},
		{"float64", storage.TypeFloat64, storage.TypeFloat64, numeric},
		{"string", storage.TypeString, storage.TypeString, func(_ storage.Type, d, _ int) storage.Value {
			return storage.String64(fmt.Sprint("key-", d))
		}},
		{"bool", storage.TypeBool, storage.TypeBool, func(_ storage.Type, d, _ int) storage.Value { return storage.Bool(d%2 == 0) }},
		{"int64 vs float64", storage.TypeInt64, storage.TypeFloat64, numeric},
		{"float64 vs int64", storage.TypeFloat64, storage.TypeInt64, numeric},
	}
}

// load registers L (3,000 rows) and R (2,000 rows), each (k, v) with v the
// row number and k from lKey and rKey, NULLs on both sides.
func (c orientCase) load(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, side := range []struct {
		name string
		n    int
		typ  storage.Type
		key  func(int) int
	}{{"L", 3000, c.ltyp, lKey}, {"R", 2000, c.rtyp, rKey}} {
		rows := make([][]storage.Value, side.n)
		for i := range rows {
			k := storage.Null(side.typ)
			if d := side.key(i); d != noKey {
				k = c.key(side.typ, d, i)
			}
			rows[i] = []storage.Value{k, storage.Int64(int64(i))}
		}
		loadTable(t, cat, side.name, kvSchema(side.typ), rows)
	}
	return cat
}

// orientPlan plans L ⋈ R on k as a hash join, L the probe side, with the
// tables named in filtered scanned with v < 600.
func orientPlan(t testing.TB, cat *catalog.Catalog, filtered ...string) optimizer.Plan {
	t.Helper()
	preds := []expr.Predicate{expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k"))}
	for _, name := range filtered {
		preds = append(preds, expr.NewConst(ref(name, "v"), expr.OpLT, storage.Int64(600)))
	}
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}}, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: hashOnly})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder([]string{"L", "R"})
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := plan.(*optimizer.Join); !ok || j.Method != optimizer.HashJoin || len(j.Residual) > 0 {
		t.Fatalf("plan is not a hash join without residual: %v", plan)
	}
	return plan
}

// A counting hash join may build on either input (buildsLeft), and which it
// builds on shows nowhere: every counting join of a view and a filtered
// input, and of two views, over every key kind, NULLs on both sides, run
// built on its right input and built on its left gives the same count,
// TuplesScanned, Comparisons, tuple and row charges and ledger peak, and
// under row and tuple budgets stops at the same charges. A join that forms
// pairs never swaps: forced to, it returns the same rows in the same order.
func TestHashJoinOrientation(t *testing.T) {
	planned, swapped := false, true
	for _, c := range orientCases() {
		cat := c.load(t)
		for _, filtered := range [][]string{{"R"}, {"L"}, nil} {
			plan := orientPlan(t, cat, filtered...)
			t.Run(fmt.Sprintf("%s/filtered=%v", c.name, filtered), func(t *testing.T) {
				limits := governor.Limits{}
				right, left := runCounted(t, cat, plan, []int{}, limits, &planned), runCounted(t, cat, plan, []int{}, limits, &swapped)
				if right.err != nil || left.err != nil {
					t.Fatalf("errors %v, %v", right.err, left.err)
				}
				if right.rows < 3*colBatch {
					t.Fatalf("%d rows: fewer than three pair batches test no chunking", right.rows)
				}
				if right != left {
					t.Fatalf("built on the right %+v, on the left %+v", right, left)
				}
				if rule := runCounted(t, cat, plan, []int{}, limits, nil); rule != right {
					t.Fatalf("the cost rule's run %+v, the planned %+v", rule, right)
				}
				rows, tuples := right.charged[1], right.charged[0]
				var stops []governor.Limits
				for _, n := range []int64{1, colBatch - 1, colBatch, colBatch + 1, 2*colBatch + 7, rows - 1} {
					stops = append(stops, governor.Limits{MaxRows: n})
				}
				for _, n := range []int64{tuples / 3, tuples - 1} {
					stops = append(stops, governor.Limits{MaxTuples: n})
				}
				for _, stop := range stops {
					right, left := runCounted(t, cat, plan, []int{}, stop, &planned), runCounted(t, cat, plan, []int{}, stop, &swapped)
					if !errors.Is(right.err, governor.ErrBudgetExceeded) || !errors.Is(left.err, governor.ErrBudgetExceeded) {
						t.Fatalf("rows %d, tuples %d: errors %v and %v, want both over budget", stop.MaxRows, stop.MaxTuples, right.err, left.err)
					}
					if right.charged != left.charged || right.peak != left.peak {
						t.Fatalf("rows %d, tuples %d: built on the right stopped at %v (peak %d), on the left at %v (peak %d)",
							stop.MaxRows, stop.MaxTuples, right.charged, right.peak, left.charged, left.peak)
					}
				}
				if right.rows > 100000 {
					return // too many rows to gather twice
				}
				paired := func(swap *bool) string {
					ex := NewGoverned(cat, governor.New(context.Background(), governor.Limits{}))
					ex.swapBuild = swap
					res, err := ex.Execute(plan)
					if err != nil {
						t.Fatal(err)
					}
					return res.Table.Format(res.Table.NumRows())
				}
				if paired(&planned) != paired(&swapped) {
					t.Fatal("a join that forms pairs returned other rows or another order when told to swap")
				}
			})
		}
	}
}

// buildsLeft's cost rule: a build costs its rows unless it is a view's
// shared one, a probe its rows, the cheaper orientation wins and a tie keeps
// the planned build; a join with a live column or a residual never swaps.
func TestBuildsLeftRule(t *testing.T) {
	schema := kvSchema(storage.TypeInt64)
	owned := func(n int) *storage.Table {
		tbl := storage.NewTable("t", schema)
		for i := range n {
			tbl.MustAppendRow(storage.Int64(int64(i)), storage.Int64(int64(i)))
		}
		return tbl
	}
	view := func(n int) *storage.Table {
		v, err := owned(n).View("v", schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	dead := make([]bool, 4)
	residual := []optimizer.Cond{{Left: 1, Op: expr.OpLT, Right: 3}}
	for _, c := range []struct {
		name        string
		left, right *storage.Table
		live        []bool
		residual    []optimizer.Cond
		want        bool
	}{
		{"view probes a filtered build", view(100), owned(10), dead, nil, true},
		{"filtered probes a view", owned(10), view(100), dead, nil, false},
		{"large view probes a small view", view(100), view(10), dead, nil, true},
		{"small view probes a large view", view(10), view(100), dead, nil, false},
		{"views tie", view(50), view(50), dead, nil, false},
		{"owned inputs always tie", owned(10), owned(100), dead, nil, false},
		{"a live column", view(100), owned(10), []bool{false, true, false, false}, nil, false},
		{"every column live", view(100), owned(10), nil, nil, false},
		{"a residual", view(100), owned(10), dead, residual, false},
	} {
		spec := &hashSpec{joinSpec: &joinSpec{left: c.left, right: c.right, rKey: 0, residual: c.residual, live: c.live}}
		if got := (&Executor{}).buildsLeft(spec); got != c.want {
			t.Errorf("%s: builds left %v, want %v", c.name, got, c.want)
		}
	}
}

// orientFixture registers L, 50,000 rows with k = row, and R, 50,000 rows
// with k = row mod 12,500 of which v < 12,500 keeps 12,500, and returns the
// hash join L ⋈ R with L the planned probe side, its inputs executed and
// its output carrying no column: a COUNT(*) of 12,500 rows.
func orientFixture(t *testing.T) (ex *Executor, j *optimizer.Join, left, right *storage.Table, live []bool) {
	const rows, filtered = 50000, 12500
	cat := catalog.New()
	for name, mod := range map[string]int{"L": rows, "R": filtered} {
		tbl := storage.NewTable(name, kvSchema(storage.TypeInt64))
		for i := range rows {
			tbl.MustAppendRow(storage.Int64(int64(i%mod)), storage.Int64(int64(i)))
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}}, []expr.Predicate{
		expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k")),
		expr.NewConst(ref("R", "v"), expr.OpLT, storage.Int64(filtered))}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: hashOnly})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder([]string{"L", "R"})
	if err != nil {
		t.Fatal(err)
	}
	j = plan.(*optimizer.Join)
	ex = NewGoverned(cat, governor.New(context.Background(), governor.Limits{}))
	live = make([]bool, 4)
	leftLive, rightLive := inputsLive(j, live, 2)
	var stats Stats
	if left, err = ex.runScan(j.Left.(*optimizer.Scan), leftLive, &stats); err != nil {
		t.Fatal(err)
	}
	if right, err = ex.runScan(j.Right, rightLive, &stats); err != nil {
		t.Fatal(err)
	}
	if !left.IsView() || right.IsView() || right.NumRows() != filtered {
		t.Fatalf("inputs: view %v of %d rows, view %v of %d rows", left.IsView(), left.NumRows(), right.IsView(), right.NumRows())
	}
	return ex, j, left, right, live
}

// A warm counting join of a 50,000-row view against a 12,500-row filtered
// input probes the view's shared build with the filtered rows: it
// allocates under 64 KiB, where building on the filtered input, as planned,
// allocates a table over its 12,500 rows.
func TestCountingJoinProbesSharedBuild(t *testing.T) {
	ex, j, left, right, live := orientFixture(t)
	join := func() {
		out, err := ex.hashJoin(j, left, right, live, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		if out.NumRows() != 12500 {
			t.Fatalf("%d rows, want 12500", out.NumRows())
		}
	}
	perJoin := func(swap *bool) (allocs float64, bytes uint64) {
		ex.swapBuild = swap
		allocs = testing.AllocsPerRun(10, join) // warms the memo first
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			join()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	planned := false
	plannedAllocs, plannedBytes := perJoin(&planned)
	allocs, bytes := perJoin(nil)
	t.Logf("built on the view: %v allocations, %d bytes per join; on the filtered input: %v, %d", allocs, bytes, plannedAllocs, plannedBytes)
	if bytes >= 64<<10 {
		t.Errorf("a warm counting join allocated %d bytes, want under 64 KiB", bytes)
	}
}

// A hash join or an index nested-loops join of a 10-row outer input with a
// 100,000-row base table derives no key of the inner once the inner's build
// is memoized: float64 keys, which the join renders as bits, allocate
// within twice what int64 keys, read as stored, do.
func TestWarmJoinDerivesOnlyProbeKeys(t *testing.T) {
	for _, method := range []optimizer.JoinMethod{optimizer.HashJoin, optimizer.IndexNL} {
		var bytes [2]uint64
		for i, typ := range []storage.Type{storage.TypeInt64, storage.TypeFloat64} {
			cat := catalog.New()
			for name, n := range map[string]int{"L": 10, "R": 100000} {
				tbl := storage.NewTable(name, kvSchema(typ))
				for r := range n {
					k := storage.Int64(int64(r))
					if typ == storage.TypeFloat64 {
						k = storage.Float64(float64(r))
					}
					tbl.MustAppendRow(k, storage.Int64(int64(r)))
				}
				if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := cat.BuildIndex("R", "k"); err != nil {
				t.Fatal(err)
			}
			plan := countCase{}.plan(t, cat, method)
			allocatedBytes(t, cat, plan) // builds the memo
			// The least of several runs: under the race detector the arena's
			// sync.Pool drops buffers at random.
			bytes[i] = math.MaxUint64
			for range 5 {
				b, res := allocatedBytes(t, cat, plan)
				if res.Stats.RowsProduced != 10 {
					t.Fatalf("%d rows, want 10", res.Stats.RowsProduced)
				}
				bytes[i] = min(bytes[i], b)
			}
		}
		t.Logf("%v: int64 keys %d bytes, float64 keys %d bytes per warm join", method, bytes[0], bytes[1])
		if bytes[1] > 2*bytes[0] {
			t.Errorf("%v: float64 keys allocated %d bytes per warm join, int64 keys %d: want at most twice", method, bytes[1], bytes[0])
		}
	}
}
