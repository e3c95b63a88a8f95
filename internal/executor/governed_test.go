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

// The governor's accounting must be exact: it is charged every tuple the
// work counters report and every row an operator materialized, no more.
func TestGovernorAccountingExact(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(300, 400)...)
	plan := planChain(t, cat, 2, []optimizer.JoinMethod{optimizer.HashJoin})
	gov := governor.New(context.Background(), governor.Limits{MaxTuples: 1 << 30, MaxRows: 1 << 30})
	res, err := NewGoverned(cat, gov).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	var materialized int64
	for _, n := range res.Nodes {
		materialized += n.ActualRows
	}
	tuples, rows, _ := gov.Usage()
	if tuples != res.Stats.TuplesScanned || rows != materialized {
		t.Errorf("governor charged %d tuples, %d rows; executed %d tuples, %d rows",
			tuples, rows, res.Stats.TuplesScanned, materialized)
	}
	if tuples == 0 || rows == 0 {
		t.Fatalf("governor saw no work: %d tuples, %d rows", tuples, rows)
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
