package executor

import (
	"context"
	"errors"
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
	if err := cat.BuildIndex("T1", "k"); err != nil {
		t.Fatal(err)
	}
	unlimited := governor.Limits{MaxTuples: 1 << 30, MaxRows: 1 << 30}
	for _, method := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge, optimizer.HashJoin, optimizer.IndexNL} {
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

// Cancelling the governor's context from another goroutine while a join
// runs must stop the query with ErrCanceled.
func TestCancelMidJoin(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(400, 400, 300)...)
	plan := planChain(t, cat, 3, []optimizer.JoinMethod{optimizer.NestedLoop})
	ctx, cancel := context.WithCancel(context.Background())
	exec := NewGoverned(cat, governor.New(ctx, governor.Limits{}))
	done := make(chan error, 1)
	go func() {
		_, err := exec.Execute(plan)
		done <- err
	}()
	cancel()
	err := <-done
	// The query may finish before the cancel lands; both outcomes are
	// legal, but an error must be the typed cancellation.
	if err != nil && !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled or success", err)
	}
}

// allocPlans plans, once each, a four-table hash-join chain with a scan
// filter and a residual, and an index nested-loops join.
func allocPlans(t *testing.T) (*catalog.Catalog, map[string]optimizer.Plan) {
	cat := buildCatalog(t, chainSpec2("A", 40), chainSpec2("B", 40), chainSpec2("C", 40), chainSpec2("D", 40))
	if err := cat.BuildIndex("B", "k"); err != nil {
		t.Fatal(err)
	}
	tabs := []cardest.TableRef{{Table: "A"}, {Table: "B"}, {Table: "C"}, {Table: "D"}}
	chain := []expr.Predicate{
		expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k")),
		expr.NewJoin(ref("A", "u"), expr.OpLT, ref("B", "u")),
		expr.NewJoin(ref("B", "u"), expr.OpEQ, ref("C", "u")),
		expr.NewJoin(ref("C", "k"), expr.OpEQ, ref("D", "k")),
		expr.NewConst(ref("D", "u"), expr.OpLT, storage.Int64(3)),
	}
	plans := map[string]optimizer.Plan{}
	for name, c := range map[string]struct {
		tabs    []cardest.TableRef
		preds   []expr.Predicate
		methods []optimizer.JoinMethod
	}{
		"hash chain": {tabs, chain, hashOnly},
		"index NL":   {tabs[:2], chain[:2], []optimizer.JoinMethod{optimizer.IndexNL}},
	} {
		est, err := cardest.New(cat, c.tabs, c.preds, cardest.ELS())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := optimizer.New(est, optimizer.Options{Methods: c.methods})
		if err != nil {
			t.Fatal(err)
		}
		order := []string{"A", "B", "C", "D"}[:len(c.tabs)]
		if plans[name], err = opt.PlanForOrder(order); err != nil {
			t.Fatal(err)
		}
	}
	return cat, plans
}

// raceBuild reports a build with the race detector (race_test.go).
var raceBuild bool

// Executing a planned query resolves no names: the plan carries its
// ordinals, so a run allocates its operators' outputs and scratch, not a
// compiled copy of every predicate, key lookups or residual lists. Before
// plans carried ordinals the two runs took 246 and 123 allocations (269
// and 128 under the race detector). The chain's two unfiltered build sides
// take their hash tables from the base columns' memo after the first run:
// 231 allocations became 226 (255 became 249–251 under the race detector).
func TestExecuteAllocationCeiling(t *testing.T) {
	cat, plans := allocPlans(t)
	ceilings := map[string]float64{"hash chain": 229, "index NL": 118}
	if raceBuild {
		ceilings = map[string]float64{"hash chain": 255, "index NL": 124}
	}
	for name, ceiling := range ceilings {
		plan := plans[name]
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := NewGoverned(cat, governor.New(context.Background(), governor.Limits{})).Execute(plan); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%s: %v allocations per Execute, want at most %v", name, allocs, ceiling)
		}
	}
}
