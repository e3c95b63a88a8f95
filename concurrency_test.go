package els

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/faultinject"
)

// A System is safe for concurrent read-only use once loading is complete:
// many goroutines estimating and executing against the same catalog and
// data must not race (verified under -race) and must agree on results.
func TestConcurrentQueries(t *testing.T) {
	sys := New()
	for i, name := range []string{"A", "B", "C"} {
		if err := sys.GenerateTable(name, "k", "uniform", 300, 30, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sql := "SELECT COUNT(*) FROM A, B, C WHERE A.k = B.k AND B.k = C.k"
	baseline, err := sys.Query(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	counts := make(chan int64, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(algo Algorithm) {
			defer wg.Done()
			res, err := sys.Query(sql, algo)
			if err != nil {
				errs <- err
				return
			}
			counts <- res.Count
			if _, err := sys.Estimate(sql, algo); err != nil {
				errs <- err
			}
		}(Algorithms()[w%4])
	}
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range counts {
		if c != baseline.Count {
			t.Errorf("concurrent count %d != baseline %d", c, baseline.Count)
		}
	}
}

// Cancelling a context from another goroutine while the executor is mid-join
// must terminate the query promptly with a clean ErrCanceled — no panic, no
// partial-result success — and must not disturb concurrent uncancelled
// queries (verified under -race). Every join start stalls 50 ms on an
// injected delay, which the executor sleeps out on the query's context, so
// the cancel lands while the query runs however fast its joins are.
func TestCancelMidExecution(t *testing.T) {
	defer faultinject.Reset()
	sys := New()
	// Single-value columns so every join degenerates to a full cross
	// product: 80^3 pairs, cheap enough for the uncancelled bystander below.
	for _, name := range []string{"X", "Y", "Z"} {
		if err := sys.GenerateTable(name, "k", "uniform", 80, 1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	sql := "SELECT COUNT(*) FROM X, Y, Z WHERE X.k = Y.k AND Y.k = Z.k"
	faultinject.Enable(executor.PointJoin, faultinject.Fault{Delay: 50 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	var bystander *Result
	var bystanderErr error
	go func() {
		defer wg.Done()
		// An ungoverned query on the same system keeps running to completion
		// while its sibling is cancelled.
		bystander, bystanderErr = sys.Query(sql, AlgorithmELS)
	}()

	close(started)
	_, err := sys.QueryContext(ctx, sql, AlgorithmELS)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	wg.Wait()
	if bystanderErr != nil {
		t.Fatalf("uncancelled sibling query failed: %v", bystanderErr)
	}
	if bystander.Count != 80*80*80 {
		t.Fatalf("uncancelled sibling counted %d rows, want %d", bystander.Count, 80*80*80)
	}

	// The system remains fully usable after the cancellation.
	faultinject.Disable(executor.PointJoin)
	if _, err := sys.Query(sql, AlgorithmELS); err != nil {
		t.Fatalf("query after cancel: %v", err)
	}
}
