package executor

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// sortMergeFixture registers L ⋈ R on k, both 50,000 rows in descending key
// order (so both sorts do work), overlapping in 1,000 keys, and plans it as
// a sort-merge join of two unfiltered scans. The rows are registered with
// declared statistics, not ANALYZE, which would leave both sort permutations
// built before the join's first run (TestLoadTablePublishesSortPermutation).
func sortMergeFixture(t *testing.T) (*catalog.Catalog, optimizer.Plan) {
	const rows, overlap = 50000, 1000
	cat := catalog.New()
	for name, offset := range map[string]int64{"L": 0, "R": rows - overlap} {
		tbl := storage.NewTable(name, kvSchema(storage.TypeInt64))
		for i := int64(rows - 1); i >= 0; i-- {
			tbl.MustAppendRow(storage.Int64(i+offset), storage.Int64(i))
		}
		cat.MustAddTable(catalog.SimpleTable(name, rows, map[string]float64{"k": rows, "v": rows}))
		cat.SetData(name, tbl)
	}
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}},
		[]expr.Predicate{expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k"))}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: sortMergeOnly})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder([]string{"L", "R"})
	if err != nil {
		t.Fatal(err)
	}
	return cat, plan
}

// allocatedBytes is what one Execute of plan allocates, by the runtime's
// cumulative count, and its result.
func allocatedBytes(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan) (uint64, *Result) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := NewGoverned(cat, governor.New(context.Background(), governor.Limits{})).Execute(plan)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, res
}

// A join over unfiltered base tables builds its sort permutations or its
// hash table on the first run only: later runs of the plan read the base
// columns' memo (storage.Table.Memo), so they allocate at most a quarter of
// what the first did, and return the same rows and counters.
func TestWarmJoinReusesBaseStructures(t *testing.T) {
	for name, fixture := range map[string]func(*testing.T) (*catalog.Catalog, optimizer.Plan){
		"sort-merge": sortMergeFixture,
		"hash":       func(t *testing.T) (*catalog.Catalog, optimizer.Plan) { return hashJoinFixture(t, 50000, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			cat, plan := fixture(t)
			cold, first := allocatedBytes(t, cat, plan)
			warm, again := allocatedBytes(t, cat, plan)
			if first.Stats.RowsProduced != 1000 {
				t.Fatalf("%d rows, want 1000", first.Stats.RowsProduced)
			}
			if s, w := first.Stats, again.Stats; s.RowsProduced != w.RowsProduced ||
				s.TuplesScanned != w.TuplesScanned || s.Comparisons != w.Comparisons {
				t.Fatalf("warm run counters %+v, cold %+v", w, s)
			}
			for r := 0; r < first.Table.NumRows(); r++ {
				for c := 0; c < first.Table.Schema().NumColumns(); c++ {
					if first.Table.Value(r, c).Key() != again.Table.Value(r, c).Key() {
						t.Fatalf("row %d col %d: %s warm vs %s cold", r, c, again.Table.Value(r, c), first.Table.Value(r, c))
					}
				}
			}
			t.Logf("cold %d bytes, warm %d bytes", cold, warm)
			if warm > cold/4 {
				t.Errorf("warm run allocated %d bytes, cold %d: want at most a quarter", warm, cold)
			}
		})
	}
}

// liveHeap is the heap still reachable after two collections, the second
// clearing what the first left in sync.Pool victim caches.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// The first hash join over an analyzed base column and a one-column GROUP BY
// of the same view keep on the column's memo only what points into its
// runs: the join's offset array and the groups' output order. Their rows
// are the sort permutation ANALYZE built, so together they stay under 1
// byte per build row at 1,001 keys and 14 at 50,000; a build keeping rows
// of its own adds 8 per row.
func TestRunIndexMemoBytes(t *testing.T) {
	for _, c := range []struct {
		keys  int
		bound float64
	}{{1001, 1}, {50000, 14}} {
		cat, plan := hashJoinFixture(t, c.keys, 1)
		build := cat.Data("R")
		view, err := build.View("R", build.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		allocatedBytes(t, cat, plan)
		if _, err := (&Executor{}).Aggregate(view, []int{0}, []AggSpec{{Op: AggCountStar}}); err != nil {
			t.Fatal(err)
		}
		perRow := float64(liveHeap()-before) / float64(build.NumRows())
		runtime.KeepAlive(cat)
		runtime.KeepAlive(view)
		t.Logf("%d keys: the join and the GROUP BY keep %.2f B/row", c.keys, perRow)
		if perRow > c.bound {
			t.Errorf("%d keys: the join and the GROUP BY keep %.2f B/row, want at most %.0f", c.keys, perRow, c.bound)
		}
	}
}
