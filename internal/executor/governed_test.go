package executor

import (
	"context"
	"errors"
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

// planChain builds a plan for a k-way chain join over the catalog's
// T0..T(k-1) tables restricted to the given join methods.
func planChain(t *testing.T, cat *catalog.Catalog, k int, methods []optimizer.JoinMethod) optimizer.Plan {
	t.Helper()
	tabs := make([]cardest.TableRef, k)
	var preds []expr.Predicate
	order := make([]string, k)
	for i := 0; i < k; i++ {
		name := "T" + string(rune('0'+i))
		tabs[i] = cardest.TableRef{Table: name}
		order[i] = name
		if i > 0 {
			prev := "T" + string(rune('0'+i-1))
			preds = append(preds, expr.NewJoin(ref(prev, "k"), expr.OpEQ, ref(name, "k")))
		}
	}
	preds = append(preds, expr.NewConst(ref("T0", "v"), expr.OpLT, storage.Int64(70)))
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(est, optimizer.Options{Methods: methods})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.PlanForOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// A filtered scan must match the brute-force row set.
func TestScanMatchesBruteForce(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(500)...)
	preds := []expr.Predicate{expr.NewConst(ref("T0", "k"), expr.OpLT, storage.Int64(5))}
	want := bruteForceJoinCount(t, cat, []string{"T0"}, []string{"T0"}, preds)
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "T0"}}, preds, cardest.ELS())
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
	if int(res.Stats.RowsProduced) != want {
		t.Errorf("filtered scan rows = %d, want %d", res.Stats.RowsProduced, want)
	}
	if res.Stats.TuplesScanned != 500 {
		t.Errorf("tuples scanned = %d, want 500", res.Stats.TuplesScanned)
	}
}

// The governor's accounting must be exact for every join method and for
// Aggregate over each join's output: it is charged every tuple the work
// counters report and every row an operator materialized, no more.
// Aggregate charges one tuple per input row and one row per group, so a
// row budget one short of the group count trips it.
func TestGovernorAccountingExact(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(300, 400)...)
	unlimited := governor.Limits{MaxTuples: 1 << 30, MaxRows: 1 << 30}
	for _, method := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge, optimizer.HashJoin} {
		t.Run(method.String(), func(t *testing.T) {
			plan := planChain(t, cat, 2, []optimizer.JoinMethod{method})
			if j, ok := plan.(*optimizer.Join); !ok || j.Method != method {
				t.Fatalf("plan is not a %v join: %v", method, plan)
			}
			gov := governor.New(context.Background(), unlimited)
			res, err := NewGoverned(cat, gov).Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			var materialized int64
			for _, n := range res.Nodes {
				// -1 marks the inner of a nested-loops join, which is
				// rescanned and never materialized.
				if n.ActualRows >= 0 {
					materialized += n.ActualRows
				}
			}
			tuples, rows, _ := gov.Usage()
			if tuples != res.Stats.TuplesScanned || rows != materialized {
				t.Errorf("governor charged %d tuples, %d rows; executed %d tuples, %d rows",
					tuples, rows, res.Stats.TuplesScanned, materialized)
			}
			if tuples == 0 || rows == 0 {
				t.Fatalf("governor saw no work: %d tuples, %d rows", tuples, rows)
			}
			// With no output column the charges are the same, and every byte
			// charged is released once the root's output is.
			none := governor.New(context.Background(), unlimited)
			counted, err := NewGoverned(cat, none).ExecuteColumns(plan, []int{})
			if err != nil {
				t.Fatal(err)
			}
			if nt, nr, _ := none.Usage(); nt != tuples || nr != rows || counted.Stats.RowsProduced != res.Stats.RowsProduced {
				t.Errorf("with no output column: charged %d tuples, %d rows for %d output rows; with every column %d, %d for %d",
					nt, nr, counted.Stats.RowsProduced, tuples, rows, res.Stats.RowsProduced)
			}
			none.ReleaseBytes(counted.Table.ApproxBytes())
			if used, _, _ := none.MemoryUsage(); used != 0 {
				t.Errorf("with no output column the ledger holds %d bytes after the output is released, want 0", used)
			}

			aggs := []AggSpec{{Op: AggCountStar, Name: "n"}}
			gov = governor.New(context.Background(), unlimited)
			out, err := NewGoverned(cat, gov).Aggregate(res.Table, []int{0}, aggs)
			if err != nil {
				t.Fatal(err)
			}
			groups := int64(out.NumRows())
			if groups < 2 {
				t.Fatalf("aggregate produced %d groups, want at least 2", groups)
			}
			tuples, rows, _ = gov.Usage()
			if tuples != int64(res.Table.NumRows()) || rows != groups {
				t.Errorf("aggregate charged %d tuples, %d rows; read %d rows, produced %d groups",
					tuples, rows, res.Table.NumRows(), groups)
			}
			gov = governor.New(context.Background(), governor.Limits{MaxRows: groups - 1})
			if _, err := NewGoverned(cat, gov).Aggregate(res.Table, []int{0}, aggs); !errors.Is(err, governor.ErrBudgetExceeded) {
				t.Errorf("aggregate under MaxRows %d: got %v, want ErrBudgetExceeded", groups-1, err)
			}
		})
	}
}

// A tiny tuple budget must trip inside the operators and surface the
// governor's typed budget error.
func TestBudgetExceeded(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(300, 400)...)
	plan := planChain(t, cat, 2, []optimizer.JoinMethod{optimizer.HashJoin})
	gov := governor.New(context.Background(), governor.Limits{MaxTuples: 100})
	_, err := NewGoverned(cat, gov).Execute(plan)
	if !errors.Is(err, governor.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

// A join notices a canceled context in its own loop, paired or counting.
// Its inputs are materialized ungoverned and, with the rows visited before
// the loop, stay under one governor poll interval, so the only polls under
// the canceled context come from the loop's own charges: the pair flushes
// (hash, sort-merge) and the inner visits (nested loops). The hash and
// sort-merge COUNT(*) outputs count (pairSink.counting); nested loops apply
// the key as a residual, so only their pairs are tested.
func TestCancelMidJoin(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(400, 400)...)
	for _, method := range []optimizer.JoinMethod{optimizer.HashJoin, optimizer.SortMerge, optimizer.NestedLoop} {
		j := planChain(t, cat, 2, []optimizer.JoinMethod{method}).(*optimizer.Join)
		var stats Stats
		left, err := New(cat).run(j.Left, nil, &stats, &recorder{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		right, err := New(cat).run(j.Right, nil, &stats, &recorder{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n := left.NumRows() + right.NumRows(); n >= 1024 {
			t.Fatalf("%d input rows: the join's entry visit would poll before its loop", n)
		}
		width, err := New(cat).width(j)
		if err != nil {
			t.Fatal(err)
		}
		for _, live := range [][]bool{nil, make([]bool, width)} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			gov := governor.New(ctx, governor.Limits{})
			e := NewGoverned(cat, gov)
			switch method {
			case optimizer.HashJoin:
				_, err = e.hashJoin(j, left, right, live, &stats)
			case optimizer.SortMerge:
				_, err = e.sortMerge(j, left, right, live, &stats)
			default:
				_, err = e.nestedLoop(j, left, live, &stats, &recorder{}, 0)
			}
			if !errors.Is(err, governor.ErrCanceled) {
				t.Errorf("%v, no column live %t: got %v, want ErrCanceled", method, live != nil, err)
			}
		}
	}
}

// allocChain plans, once, a four-table hash-join chain with a scan filter
// and a residual.
func allocChain(t *testing.T) (*catalog.Catalog, optimizer.Plan) {
	cat := buildCatalog(t, chainSpec2("A", 40), chainSpec2("B", 40), chainSpec2("C", 40), chainSpec2("D", 40))
	tabs := []cardest.TableRef{{Table: "A"}, {Table: "B"}, {Table: "C"}, {Table: "D"}}
	chain := []expr.Predicate{
		expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k")),
		expr.NewJoin(ref("A", "u"), expr.OpLT, ref("B", "u")),
		expr.NewJoin(ref("B", "u"), expr.OpEQ, ref("C", "u")),
		expr.NewJoin(ref("C", "k"), expr.OpEQ, ref("D", "k")),
		expr.NewConst(ref("D", "u"), expr.OpLT, storage.Int64(3)),
	}
	est, err := cardest.New(cat, tabs, chain, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: hashOnly})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder([]string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	return cat, plan
}

// raceBuild reports a build with the race detector (race_test.go).
var raceBuild bool

// Executing a planned query resolves no names: the plan carries its
// ordinals, so a run allocates its operators' outputs and scratch, not a
// compiled copy of every predicate, key lookups or residual lists. Before
// plans carried ordinals the chain took 246 allocations (269 under the
// race detector). Its two unfiltered build sides take their hash tables
// from the base columns' memo after the first run: 231 allocations became
// 226 (255 became 249–251 under the race detector).
//
// A COUNT(*) of the chain carries no output column, only the keys and the
// residual's columns below the root, whose pair sink only counts and takes
// no pair arena: 200 allocations became 197 (206 became 202 under the race
// detector), its ledger peaks at 67,464 bytes (72,240 while the root still
// formed its pairs) against the full run's 162,240, and it allocates at
// most a fifth of the full run's bytes (about 18 KB against 220 KB).
//
// Selection vectors and pair batches went from an arena whose Put boxed
// every slice it took back to a sync.Pool of slice pointers: 222 and 197
// allocations became 214 and 191 (247 and 203 became 239 and 197–198
// under the race detector), and each ceiling fell by as much.
func TestExecuteAllocationCeiling(t *testing.T) {
	cat, chain := allocChain(t)
	full, count := 221.0, 193.0
	if raceBuild {
		full, count = 247, 198
	}
	run := func(cols []int) *governor.Governor {
		gov := governor.New(context.Background(), governor.Limits{})
		if _, err := NewGoverned(cat, gov).ExecuteColumns(chain, cols); err != nil {
			t.Fatal(err)
		}
		return gov
	}
	// The fewest of five measurements: a sync.Pool refill, which the race
	// detector provokes at random, costs a run allocations of its own.
	fewest := func(f func()) float64 {
		allocs := math.Inf(1)
		for range 5 {
			allocs = min(allocs, testing.AllocsPerRun(20, f))
		}
		return allocs
	}
	fullAllocs, countAllocs := fewest(func() { run(nil) }), fewest(func() { run([]int{}) })
	t.Logf("hash chain: %v allocations per Execute, %v per COUNT(*)", fullAllocs, countAllocs)
	if fullAllocs > full {
		t.Errorf("hash chain: %v allocations per Execute, want at most %v", fullAllocs, full)
	}
	if countAllocs > count {
		t.Errorf("hash chain COUNT(*): %v allocations per run, want at most %v", countAllocs, count)
	}
	const runs = 10
	var peaks [2]int64
	var bytes [2]uint64
	for i, cols := range [][]int{nil, {}} {
		_, peaks[i], _ = run(cols).MemoryUsage()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run(cols)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	t.Logf("hash chain: every column %d bytes per run, COUNT(*) %d", bytes[0], bytes[1])
	if peaks != [2]int64{162240, 67464} {
		t.Errorf("ledger peaks %d with every column, %d with none; want 162240 and 67464", peaks[0], peaks[1])
	}
	if bytes[1] > bytes[0]/5 {
		t.Errorf("COUNT(*) allocated %d bytes per run, every column %d: want at most a fifth", bytes[1], bytes[0])
	}
}
