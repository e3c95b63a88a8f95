package executor

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// Domain value 0 is −0.0 on odd rows and 1 is +Inf, both ways round in
	// the int64 vs float64 join.
	numeric := func(typ storage.Type, d, row int) storage.Value {
		switch {
		case typ == storage.TypeInt64:
			return storage.Int64(int64(d))
		case d == 0 && row%2 == 1:
			return storage.Float64(math.Copysign(0, -1))
		case d == 1:
			return storage.Float64(math.Inf(1))
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

// orientPlan plans the hash join of two of L and R in order, the first
// the probe side and the second the build, with the tables named in
// filtered scanned with v < 600.
func orientPlan(t testing.TB, cat *catalog.Catalog, order []string, filtered ...string) optimizer.Plan {
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
	plan, err := opt.PlanForOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := plan.(*optimizer.Join); !ok || j.Method != optimizer.HashJoin || len(j.Residual) > 0 {
		t.Fatalf("plan is not a hash join without residual: %v", plan)
	}
	return plan
}

// The hash kernel's equality does not depend on which input it builds on:
// for every key kind, NULLs on both sides, the hash join of L and R planned
// both ways round — a view and a filtered input, and two views — counts
// the same rows with the same TuplesScanned, Comparisons and tuple and row
// charges, and pairs the same (L.v, R.v) rows. Each orientation's ledger
// peak is the same on a cold run, which builds a view's shared hash table,
// and a warm one, which reuses it.
func TestHashJoinOrientation(t *testing.T) {
	for _, c := range orientCases() {
		for _, filtered := range [][]string{{"R"}, {"L"}, nil} {
			t.Run(fmt.Sprintf("%s/filtered=%v", c.name, filtered), func(t *testing.T) {
				var runs [2]countRun
				for i, order := range [][]string{{"L", "R"}, {"R", "L"}} {
					cat := c.load(t) // cold: no shared build yet
					plan := orientPlan(t, cat, order, filtered...)
					cold, warm := runCounted(t, cat, plan, []int{}, governor.Limits{}), runCounted(t, cat, plan, []int{}, governor.Limits{})
					if cold.err != nil || warm.err != nil {
						t.Fatalf("%v: errors %v, %v", order, cold.err, warm.err)
					}
					if cold != warm {
						t.Fatalf("%v: cold run %+v, warm run %+v", order, cold, warm)
					}
					runs[i] = cold
				}
				if runs[0].rows < 3*colBatch {
					t.Fatalf("%d rows: fewer than three pair batches test no chunking", runs[0].rows)
				}
				runs[0].peak, runs[1].peak = 0, 0
				if runs[0] != runs[1] {
					t.Fatalf("built on R %+v, on L %+v", runs[0], runs[1])
				}
				if runs[0].rows > 100000 {
					return // too many rows to gather twice
				}
				cat := c.load(t)
				lr, rl := orientedPairs(t, cat, orientPlan(t, cat, []string{"L", "R"}, filtered...), 1, 3),
					orientedPairs(t, cat, orientPlan(t, cat, []string{"R", "L"}, filtered...), 3, 1)
				if !slices.Equal(lr, rl) {
					t.Fatal("the two orientations paired different rows")
				}
			})
		}
	}
}

// orientedPairs executes plan and returns its output's (L.v, R.v) pairs,
// read from output ordinals lv and rv, sorted.
func orientedPairs(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, lv, rv int) [][2]int64 {
	t.Helper()
	res, err := NewGoverned(cat, governor.New(context.Background(), governor.Limits{})).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table
	pairs := make([][2]int64, out.NumRows())
	for r := range pairs {
		pairs[r] = [2]int64{out.ColumnData(lv).Ints[r], out.ColumnData(rv).Ints[r]}
	}
	slices.SortFunc(pairs, func(a, b [2]int64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return pairs
}

// orientFixture registers L, 50,000 rows with k = row, and R, 50,000 rows
// with k = row mod 12,500 of which v < 12,500 keeps 12,500, and returns the
// hash join of L ⋈ R that BestPlan picks, its inputs executed and its
// output carrying no column: a COUNT(*) of 12,500 rows. Given an order,
// the join is planned in that order instead.
func orientFixture(t *testing.T, order ...string) (ex *Executor, j *optimizer.Join, left, right *storage.Table, live []bool) {
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
	var plan optimizer.Plan
	if order != nil {
		plan, err = opt.PlanForOrder(order)
	} else {
		plan, err = opt.BestPlan()
	}
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
	return ex, j, left, right, live
}

// BestPlan builds a counting join of a 50,000-row base table and a
// 12,500-row filtered input on the base table, whose hash build is shared,
// and probes it with the filtered rows: warm, the join allocates under
// 64 KiB, where building on the filtered input allocates a table over its
// 12,500 rows.
func TestCountingJoinProbesSharedBuild(t *testing.T) {
	perJoin := func(order ...string) (j *optimizer.Join, allocs float64, bytes uint64) {
		ex, j, left, right, live := orientFixture(t, order...)
		join := func() {
			out, err := ex.hashJoin(j, left, right, live, &Stats{})
			if err != nil {
				t.Fatal(err)
			}
			if out.NumRows() != 12500 {
				t.Fatalf("%d rows, want 12500", out.NumRows())
			}
		}
		allocs = testing.AllocsPerRun(10, join) // warms the memo first
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			join()
		}
		runtime.ReadMemStats(&after)
		return j, allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	j, allocs, bytes := perJoin()
	if j.Right.Table != "L" || len(j.Right.Filter) > 0 {
		t.Fatalf("BestPlan builds on %s, want the unfiltered L:\n%s", j.Right, optimizer.Format(j))
	}
	_, ownAllocs, ownBytes := perJoin("L", "R")
	t.Logf("built on the base table: %v allocations, %d bytes per join; on the filtered input: %v, %d", allocs, bytes, ownAllocs, ownBytes)
	if bytes >= 64<<10 {
		t.Errorf("a warm counting join allocated %d bytes, want under 64 KiB", bytes)
	}
}

// A hash join of a 10-row outer input with a 100,000-row base table derives
// no key of the inner once the inner's build is memoized: float64 keys,
// which the join renders as bits, allocate within twice what int64 keys,
// read as stored, do.
func TestWarmJoinDerivesOnlyProbeKeys(t *testing.T) {
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
		plan := countCase{}.plan(t, cat, optimizer.HashJoin)
		allocatedBytes(t, cat, plan) // builds the memo
		// The least of several runs: under the race detector
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
	t.Logf("int64 keys %d bytes, float64 keys %d bytes per warm join", bytes[0], bytes[1])
	if bytes[1] > 2*bytes[0] {
		t.Errorf("float64 keys allocated %d bytes per warm join, int64 keys %d: want at most twice", bytes[1], bytes[0])
	}
}
