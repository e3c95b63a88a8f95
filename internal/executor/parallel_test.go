package executor

import (
	"context"
	"errors"
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

// bigChainSpecs builds join-chain tables large enough that chunkRanges
// produces several chunks per table, so workers > 1 actually takes the
// parallel code paths.
func bigChainSpecs(rows ...int) []datagen.TableSpec {
	return chainSpecs(rows...)
}

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

// sameTable asserts b is row-for-row, value-for-value identical to a.
func sameTable(t *testing.T, a, b *storage.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row count: %d vs %d", a.NumRows(), b.NumRows())
	}
	if a.Schema().NumColumns() != b.Schema().NumColumns() {
		t.Fatalf("column count: %d vs %d", a.Schema().NumColumns(), b.Schema().NumColumns())
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.Schema().NumColumns(); c++ {
			av, bv := a.Value(r, c), b.Value(r, c)
			if storage.Compare(av, bv) != 0 {
				t.Fatalf("row %d col %d: %s vs %s", r, c, av, bv)
			}
		}
	}
}

// Parallel execution must be bit-identical to serial: same rows in the
// same order, and the same deterministic work counters — that is what the
// differential harness at the repo root relies on.
func TestParallelMatchesSerialAllOperators(t *testing.T) {
	cat := buildCatalog(t, bigChainSpecs(300, 400, 250)...)
	for _, tc := range []struct {
		name    string
		methods []optimizer.JoinMethod
	}{
		{"hash", []optimizer.JoinMethod{optimizer.HashJoin}},
		{"nestedloop", []optimizer.JoinMethod{optimizer.NestedLoop}},
		{"mixed", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := planChain(t, cat, 3, tc.methods)
			serial := New(cat)
			serial.SetWorkers(1)
			sres, err := serial.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 7} {
				par := New(cat)
				par.SetWorkers(workers)
				pres, err := par.Execute(plan)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if pres.Stats.TuplesScanned != sres.Stats.TuplesScanned {
					t.Errorf("workers=%d: tuples scanned %d, serial %d",
						workers, pres.Stats.TuplesScanned, sres.Stats.TuplesScanned)
				}
				if pres.Stats.Comparisons != sres.Stats.Comparisons {
					t.Errorf("workers=%d: comparisons %d, serial %d",
						workers, pres.Stats.Comparisons, sres.Stats.Comparisons)
				}
				if pres.Stats.RowsProduced != sres.Stats.RowsProduced {
					t.Errorf("workers=%d: rows %d, serial %d",
						workers, pres.Stats.RowsProduced, sres.Stats.RowsProduced)
				}
				sameTable(t, sres.Table, pres.Table)
			}
		})
	}
}

// A filtered parallel scan must match the brute-force row set.
func TestParallelScanMatchesBruteForce(t *testing.T) {
	cat := buildCatalog(t, bigChainSpecs(500)...)
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
	exec := New(cat)
	exec.SetWorkers(4)
	res, err := exec.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Stats.RowsProduced) != want {
		t.Errorf("parallel filtered scan rows = %d, want %d", res.Stats.RowsProduced, want)
	}
	if res.Stats.TuplesScanned != 500 {
		t.Errorf("tuples scanned = %d, want 500", res.Stats.TuplesScanned)
	}
}

// The shared governor's tuple accounting must be exact when many worker
// goroutines tick it: a parallel run on a fresh governor must report the
// same usage as a serial run.
func TestParallelGovernorAccountingExact(t *testing.T) {
	cat := buildCatalog(t, bigChainSpecs(300, 400)...)
	plan := planChain(t, cat, 2, []optimizer.JoinMethod{optimizer.HashJoin})

	run := func(workers int) (tuples, rows int64) {
		gov := governor.New(context.Background(), governor.Limits{
			MaxTuples: 1 << 30, MaxRows: 1 << 30, Workers: workers,
		})
		exec := NewGoverned(cat, gov)
		if _, err := exec.Execute(plan); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tuples, rows, _ = gov.Usage()
		return tuples, rows
	}
	st, sr := run(1)
	pt, pr := run(4)
	if pt != st || pr != sr {
		t.Errorf("governed usage differs: parallel (%d tuples, %d rows), serial (%d, %d)",
			pt, pr, st, sr)
	}
	if st == 0 || sr == 0 {
		t.Fatalf("governor saw no work: %d tuples, %d rows", st, sr)
	}
}

// A tiny tuple budget must trip inside the parallel operators and surface
// the governor's typed budget error.
func TestParallelBudgetExceeded(t *testing.T) {
	cat := buildCatalog(t, bigChainSpecs(300, 400)...)
	plan := planChain(t, cat, 2, []optimizer.JoinMethod{optimizer.HashJoin})
	gov := governor.New(context.Background(), governor.Limits{MaxTuples: 100, Workers: 4})
	exec := NewGoverned(cat, gov)
	_, err := exec.Execute(plan)
	if !errors.Is(err, governor.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
}

// Faults armed at the chunk probe points fire inside worker goroutines;
// the operator must return the injected error cleanly.
func TestParallelChunkFaultInjection(t *testing.T) {
	cat := buildCatalog(t, bigChainSpecs(300, 400)...)
	boom := errors.New("injected chunk failure")
	for _, tc := range []struct {
		point   string
		methods []optimizer.JoinMethod
	}{
		{PointScanChunk, []optimizer.JoinMethod{optimizer.HashJoin}},
		{PointJoinChunk, []optimizer.JoinMethod{optimizer.HashJoin}},
		{PointJoinChunk, []optimizer.JoinMethod{optimizer.NestedLoop}},
	} {
		t.Run(tc.point+"/"+tc.methods[0].String(), func(t *testing.T) {
			plan := planChain(t, cat, 2, tc.methods)
			faultinject.Enable(tc.point, faultinject.Fault{Err: boom, Times: 1})
			defer faultinject.Reset()
			exec := New(cat)
			exec.SetWorkers(4)
			_, err := exec.Execute(plan)
			if !errors.Is(err, boom) {
				t.Fatalf("got %v, want the injected error", err)
			}
			if faultinject.Hits(tc.point) != 0 { // Times:1 self-disarms after firing
				t.Fatalf("probe %s did not fire", tc.point)
			}
		})
	}
}

// Cancelling the governor's context from another goroutine while a
// parallel join runs must stop the query with ErrCanceled and leak no
// goroutines (the leak fence lives in TestMain-adjacent concurrency
// tests; here we assert the error taxonomy).
func TestParallelCancelMidJoin(t *testing.T) {
	cat := buildCatalog(t, bigChainSpecs(400, 400, 300)...)
	plan := planChain(t, cat, 3, []optimizer.JoinMethod{optimizer.NestedLoop})
	ctx, cancel := context.WithCancel(context.Background())
	gov := governor.New(ctx, governor.Limits{Workers: 4})
	exec := NewGoverned(cat, gov)
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

func TestChunkRanges(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
	}{
		{0, 4}, {1, 4}, {63, 4}, {64, 4}, {65, 4}, {1000, 4}, {1000, 1}, {10000, 16},
	} {
		ranges := chunkRanges(tc.n, tc.workers)
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r[0] != prev {
				t.Fatalf("n=%d workers=%d: gap before %v", tc.n, tc.workers, r)
			}
			if r[1] <= r[0] {
				t.Fatalf("n=%d workers=%d: empty range %v", tc.n, tc.workers, r)
			}
			covered += r[1] - r[0]
			prev = r[1]
		}
		if covered != tc.n {
			t.Fatalf("n=%d workers=%d: ranges cover %d rows", tc.n, tc.workers, covered)
		}
	}
}
