package els

import (
	"context"
	"crypto/sha256"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/querygen"
	"repro/internal/storage"
)

// runPrint is everything one governed run must repeat whether or not it
// found its base columns' join structures memoized: the rows in order, the
// work counters, the governor's tuple/row charges and its byte ledger.
type runPrint struct {
	rows                                 [sha256.Size]byte
	tuples, comparisons, produced        int64
	usage                                [2]int64
	peakBytes, spills, spilledBuildBytes int64
}

func printRun(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, budget int64) runPrint {
	t.Helper()
	return fingerprint(execGoverned(t, cat, plan, budget))
}

func fingerprint(res *executor.Result, usage [2]int64, gov *governor.Governor) runPrint {
	h := sha256.New()
	hashRows(h, res.Table)
	p := runPrint{tuples: res.Stats.TuplesScanned, comparisons: res.Stats.Comparisons,
		produced: res.Stats.RowsProduced, usage: usage}
	h.Sum(p.rows[:0])
	_, p.peakBytes, _ = gov.MemoryUsage()
	p.spills, p.spilledBuildBytes = gov.SpillStats()
	return p
}

// Every plan of the differentials runs three times, unbudgeted and under
// its byte budget: first on a freshly loaded catalog, where every sort
// permutation and hash build over a base column is built, then twice more
// on the same catalog, where unfiltered base-table inputs find them
// memoized. The three runs are bit-identical: rows and their order,
// counters, governor charges, ledger peak and spill stats.
func TestJoinMemoColdWarmBitIdentical(t *testing.T) {
	for seed := int64(0); seed < differentialQueries(t); seed++ {
		q := querygen.Generate(seed)
		_, plans := differentialPlans(t, q)
		for i, plan := range plans {
			for _, budget := range []int64{0, diffBudget(plan)} {
				cat := loadGenerated(t, q, 0)
				cold := printRun(t, cat, plan, budget)
				for run := 2; run <= 3; run++ {
					if warm := printRun(t, cat, plan, budget); warm != cold {
						t.Fatalf("seed %d plan %d (%s) budget %d: run %d %+v, cold run %+v", seed, i, plan, budget, run, warm, cold)
					}
				}
			}
		}
	}
}

// memoJoinCatalog loads two 6,000-row tables whose k columns share 3,000
// values, for a join whose inputs are both unfiltered base-table scans.
func memoJoinCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for i, name := range []string{"A", "B"} {
		tbl, err := datagen.Generate(datagen.TableSpec{Name: name, Rows: 6000, Columns: []datagen.ColumnSpec{
			{Name: "k", Dist: datagen.DistUniform, Domain: 3000},
			{Name: "v", Dist: datagen.DistUniform, Domain: 100},
		}}, int64(11+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// memoJoinPlan plans A ⋈ B on k with B, unfiltered, as the right input.
func memoJoinPlan(t *testing.T, cat *catalog.Catalog, method optimizer.JoinMethod) optimizer.Plan {
	t.Helper()
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}},
		[]expr.Predicate{expr.NewJoin(expr.ColumnRef{Table: "A", Column: "k"}, expr.OpEQ, expr.ColumnRef{Table: "B", Column: "k"})},
		cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{method}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// Eight goroutines that run a sort-merge and a hash join at once on a
// freshly loaded catalog race to build the same memoized structures; every
// result equals the one a serial run on another fresh catalog returned (run
// with -race).
func TestJoinMemoConcurrentFirstUse(t *testing.T) {
	methods := []optimizer.JoinMethod{optimizer.SortMerge, optimizer.HashJoin}
	serial := memoJoinCatalog(t)
	var plans []optimizer.Plan
	var want []runPrint
	for _, m := range methods {
		plans = append(plans, memoJoinPlan(t, serial, m))
		want = append(want, printRun(t, serial, plans[len(plans)-1], 0))
	}
	cat := memoJoinCatalog(t)
	got := make([][]runPrint, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]runPrint, len(plans))
			for k := range plans {
				i := (k + g) % len(plans) // half the goroutines start with each plan
				gov := governor.New(context.Background(), governor.Limits{})
				res, err := executor.NewGoverned(cat, gov).Execute(plans[i])
				if err != nil {
					errs[g] = err
					return
				}
				tuples, rows, _ := gov.Usage()
				got[g][i] = fingerprint(res, [2]int64{tuples, rows}, gov)
			}
		}()
	}
	wg.Wait()
	for g, prints := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !slices.Equal(prints, want) {
			t.Fatalf("goroutine %d: %+v, serial %+v", g, prints, want)
		}
	}
}

// Reloading a table under the same name and row count replaces it: the
// join that follows counts the new rows, under sort-merge and hash join
// alike, not the structures memoized over the old ones.
func TestJoinMemoReplacedTable(t *testing.T) {
	// keys has n rows whose k runs from off through off+mod-1, cyclically.
	keys := func(n, mod, off int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(off + i%mod), int64(i)}
		}
		return rows
	}
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.k = S.k"
	// Default limits plan a sort-merge join; any byte budget a hash join.
	for _, c := range []struct {
		method string
		lim    Limits
		n      int      // R's rows
		want   [3]int64 // the count after each load of R and S
	}{
		{"SM", Limits{}, 2000, [3]int64{4000, 2000, 1000}},
		{"HASH", Limits{MaxMemory: 1 << 40}, 2000, [3]int64{4000, 2000, 1000}},
	} {
		sys := New()
		sys.SetLimits(c.lim)
		for i, load := range []struct {
			table string
			rows  [][]int64
		}{
			{"S", keys(2000, 1000, 0)},     // R not loaded yet
			{"R", keys(c.n, c.n/2, 0)},     // R's keys twice each, S's 0..999 twice
			{"R", keys(c.n, c.n, 0)},       // R's keys once each
			{"S", keys(2000, 2000, c.n/2)}, // S's keys once each, from n/2 on
		} {
			if err := sys.LoadTable(load.table, []string{"k", "v"}, load.rows); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				continue
			}
			for run := 0; run < 2; run++ {
				res, err := sys.Query(sql, AlgorithmELS)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Estimate.JoinMethods, []string{c.method}) {
					t.Fatalf("limits %+v: planned %v, want %s", c.lim, res.Estimate.JoinMethods, c.method)
				}
				if want := c.want[i-1]; res.Count != want {
					t.Fatalf("%s after reloading %s, run %d: count %d, want %d", c.method, load.table, run, res.Count, want)
				}
			}
		}
	}
}

// ANALYZE reads each column's sort permutation off the base column's memo,
// so LoadTable leaves it there: a fresh view of the loaded table, as
// an unfiltered scan takes, finds it on its first call without sorting or
// allocating. (testing.AllocsPerRun would hide a first-call build behind its
// warm-up call.)
func TestLoadTablePublishesSortPermutation(t *testing.T) {
	sys := New()
	rows := make([][]int64, 5000)
	for i := range rows {
		rows[i] = []int64{int64(len(rows) - i), int64(i % 7)}
	}
	if err := sys.LoadTable("T", []string{"k", "v"}, rows); err != nil {
		t.Fatal(err)
	}
	tbl := sys.catalogNow().Data("T")
	view, err := tbl.View(tbl.Name(), tbl.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 2; col++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perm := view.SortPermutation(col)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("column %d: the first SortPermutation of a fresh view allocated %d times, want 0", col, n)
		}
		if !slices.Equal(perm, tbl.SortedIndices(col)) {
			t.Errorf("column %d: the published permutation is not the column's order", col)
		}
	}
}

// Reloading a table under the same name and row count between two
// identical filtered queries replaces it: the second query reads the new
// rows through the new table's sort permutation, not the old one's (50 rows
// here, not the first load's 200).
func TestScanMemoReplacedTable(t *testing.T) {
	const sql = "SELECT S.k, S.v FROM S WHERE S.k < 50"
	sys := New()
	for _, mod := range []int{250, 1000} {
		rows := make([][]int64, 1000)
		for i := range rows {
			rows[i] = []int64{int64(i % mod), int64(mod + i)}
		}
		if err := sys.LoadTable("S", []string{"k", "v"}, rows); err != nil {
			t.Fatal(err)
		}
		var want [][]string
		for _, r := range rows {
			if r[0] < 50 {
				want = append(want, []string{strconv.FormatInt(r[0], 10), strconv.FormatInt(r[1], 10)})
			}
		}
		for run := 0; run < 2; run++ {
			res, err := sys.Query(sql, AlgorithmELS)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(res.Rows, want, slices.Equal) {
				t.Fatalf("k cycling mod %d, run %d: %d rows, want %d (first %v, want %v)",
					mod, run, len(res.Rows), len(want), res.Rows[:min(3, len(res.Rows))], want[:3])
			}
		}
	}
}

// Eight goroutines run a filtered scan and a nested-loops join whose inner
// is filtered, at once, over tables that were never analyzed (their
// statistics come from identical copies), so the first scans race to sort
// and publish each filtered column's permutation. Every result equals a
// serial run's on another such catalog (run with -race).
func TestScanMemoConcurrentFirstUse(t *testing.T) {
	unanalyzed := func() *catalog.Catalog {
		cat := memoJoinCatalog(t)
		for i, name := range []string{"A", "B"} {
			tbl, err := datagen.Generate(datagen.TableSpec{Name: name, Rows: 6000, Columns: []datagen.ColumnSpec{
				{Name: "k", Dist: datagen.DistUniform, Domain: 3000},
				{Name: "v", Dist: datagen.DistUniform, Domain: 100},
			}}, int64(11+i))
			if err != nil {
				t.Fatal(err)
			}
			cat.SetData(name, tbl)
		}
		return cat
	}
	col := func(table, column string) expr.ColumnRef { return expr.ColumnRef{Table: table, Column: column} }
	plan := func(cat *catalog.Catalog, tabs []string, preds ...expr.Predicate) optimizer.Plan {
		refs := make([]cardest.TableRef, len(tabs))
		for i, name := range tabs {
			refs[i] = cardest.TableRef{Table: name}
		}
		est, err := cardest.New(cat, refs, preds, cardest.ELS())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.NestedLoop}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := opt.PlanForOrder(tabs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial := unanalyzed()
	plans := []optimizer.Plan{
		plan(serial, []string{"A"}, expr.NewConst(col("A", "k"), expr.OpGE, storage.Int64(2900))),
		plan(serial, []string{"A", "B"}, expr.NewConst(col("A", "v"), expr.OpEQ, storage.Int64(7)),
			expr.NewConst(col("B", "v"), expr.OpLT, storage.Int64(60)),
			expr.NewJoin(col("A", "k"), expr.OpEQ, col("B", "k"))),
	}
	var want []runPrint
	for _, p := range plans {
		want = append(want, printRun(t, serial, p, 0))
	}
	cat := unanalyzed()
	got := make([][]runPrint, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([]runPrint, len(plans))
			for k := range plans {
				i := (k + g) % len(plans) // half the goroutines start with each plan
				gov := governor.New(context.Background(), governor.Limits{})
				res, err := executor.NewGoverned(cat, gov).Execute(plans[i])
				if err != nil {
					errs[g] = err
					return
				}
				tuples, rows, _ := gov.Usage()
				got[g][i] = fingerprint(res, [2]int64{tuples, rows}, gov)
			}
		}()
	}
	wg.Wait()
	for g, prints := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !slices.Equal(prints, want) {
			t.Fatalf("goroutine %d: %+v, serial %+v", g, prints, want)
		}
	}
}
