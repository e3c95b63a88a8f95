package els

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cardest"
	"repro/internal/executor"
	"repro/internal/faultinject"
)

// The three structured error types are reachable through errors.As from
// public API failures, and their messages carry the structured details a
// caller would otherwise have to parse out.
func TestStructuredErrorSurface(t *testing.T) {
	t.Run("BudgetError", func(t *testing.T) {
		sys := testServeSystem(t)
		sys.SetLimits(Limits{MaxTuples: 10})
		_, err := sys.Query(serveJoinSQL, AlgorithmELS)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want BudgetError", err)
		}
		if be.Resource != "tuples" || be.Limit != 10 {
			t.Fatalf("BudgetError = %+v", be)
		}
		for _, want := range []string{"tuples", "10"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("message %q missing %q", err.Error(), want)
			}
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Error("BudgetError must unwrap to ErrBudgetExceeded")
		}
	})

	t.Run("InternalError", func(t *testing.T) {
		sys := testServeSystem(t)
		faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{PanicValue: "kaboom-424242"})
		defer faultinject.Reset()
		_, err := sys.Estimate(serveJoinSQL, AlgorithmELS)
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("err = %v, want InternalError", err)
		}
		if ie.Value != "kaboom-424242" || len(ie.Stack) == 0 {
			t.Fatalf("InternalError value %v, stack %d bytes", ie.Value, len(ie.Stack))
		}
		if !strings.Contains(err.Error(), "kaboom-424242") {
			t.Errorf("message %q missing panic value", err.Error())
		}
		if !errors.Is(err, ErrInternal) {
			t.Error("InternalError must unwrap to ErrInternal")
		}
	})

	t.Run("OverloadError", func(t *testing.T) {
		sys := testServeSystem(t)
		sys.SetLimits(Limits{MaxConcurrent: 1, MaxQueue: 1})
		// Occupy the only slot with a query slowed by an injected scan
		// latency, fill the one queue seat with a second query, then
		// assert the third sheds; cancel unblocks the first two.
		ctx, cancel := context.WithCancel(context.Background())
		faultinject.Enable(executor.PointScan, faultinject.Fault{Delay: 10 * time.Second, Times: 1})
		defer faultinject.Reset()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = sys.QueryContext(ctx, serveJoinSQL, AlgorithmELS)
		}()
		for sys.RobustnessStats().InFlight == 0 {
			time.Sleep(time.Millisecond)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = sys.QueryContext(ctx, serveJoinSQL, AlgorithmELS)
		}()
		for sys.RobustnessStats().Waiting == 0 {
			time.Sleep(time.Millisecond)
		}
		_, err := sys.Query(serveJoinSQL, AlgorithmELS)
		var oe *OverloadError
		if !errors.As(err, &oe) {
			t.Fatalf("err = %v, want OverloadError", err)
		}
		if oe.Reason != "queue full" || oe.MaxConcurrent != 1 {
			t.Fatalf("OverloadError = %+v", oe)
		}
		for _, want := range []string{"overloaded", "queue full", "max-concurrent 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("message %q missing %q", err.Error(), want)
			}
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Error("OverloadError must unwrap to ErrOverloaded")
		}
		cancel()
		wg.Wait()
	})
}

// Retry fires only on the transient class: deterministic failures
// (ErrParse, ErrBadStats) and caller-driven aborts (ErrCanceled) run the
// pipeline exactly once — or never — regardless of the retry policy.
func TestRetryNeverFiresOnDeterministicFailures(t *testing.T) {
	const maxAttempts = 4
	cases := []struct {
		name string
		// arm optionally arms a fault; run issues the query.
		arm      func()
		run      func(sys *System) error
		sentinel error
		// wantHits is how many times the estimator pipeline may be entered:
		// 1 for failures inside the pipeline, 0 for failures before it.
		wantHits int64
	}{
		{
			name: "ErrInternal retries to exhaustion (control)",
			arm: func() {
				faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
					Err: fmt.Errorf("%w: injected", ErrInternal),
				})
			},
			run: func(sys *System) error {
				_, err := sys.Estimate(serveJoinSQL, AlgorithmELS)
				return err
			},
			sentinel: ErrInternal,
			wantHits: maxAttempts,
		},
		{
			name: "ErrBadStats runs once",
			arm: func() {
				faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
					Err: fmt.Errorf("%w: injected corrupt stats", ErrBadStats),
				})
			},
			run: func(sys *System) error {
				_, err := sys.Estimate(serveJoinSQL, AlgorithmELS)
				return err
			},
			sentinel: ErrBadStats,
			wantHits: 1,
		},
		{
			name: "ErrParse never reaches the pipeline",
			// A no-op fault that only counts pipeline entries.
			arm: func() { faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{}) },
			run: func(sys *System) error {
				_, err := sys.Estimate("SELEC nonsense FROM", AlgorithmELS)
				return err
			},
			sentinel: ErrParse,
			wantHits: 0,
		},
		{
			name: "ErrCanceled aborts without attempts",
			arm:  func() { faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{}) },
			run: func(sys *System) error {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, err := sys.EstimateContext(ctx, serveJoinSQL, AlgorithmELS)
				return err
			},
			sentinel: ErrCanceled,
			wantHits: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			defer faultinject.Reset()
			sys := testServeSystem(t)
			sys.SetRetryPolicy(RetryPolicy{MaxAttempts: maxAttempts, BaseDelay: 50 * time.Microsecond, Seed: 1})
			if tc.arm != nil {
				tc.arm()
			}
			err := tc.run(sys)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want %v", err, tc.sentinel)
			}
			if hits := faultinject.Hits(cardest.PointNewQuery); hits != tc.wantHits {
				t.Fatalf("pipeline entered %d times, want %d", hits, tc.wantHits)
			}
		})
	}
}

// typeMismatchSQL are statements whose comparisons storage.Compare cannot
// make, or that sum or average a string, over typeMismatchSystem's tables.
var typeMismatchSQL = []string{
	"SELECT COUNT(*) FROM P WHERE P.name < 5",
	"SELECT COUNT(*) FROM P WHERE P.id < 'a'",
	"SELECT COUNT(*) FROM P WHERE P.name = P.id",
	"SELECT COUNT(*) FROM P WHERE P.name < 5 OR P.id = 1",
	"SELECT COUNT(*) FROM P, Q WHERE P.id = Q.id AND P.name < Q.n",
	"SELECT COUNT(*) FROM P, Q WHERE P.name = Q.n",
	"SELECT SUM(P.name) FROM P",
	"SELECT AVG(P.name) FROM P",
}

// typeMismatchSystem loads P(id BIGINT, name VARCHAR, x DOUBLE) and
// Q(id BIGINT, n BIGINT) from CSV.
func typeMismatchSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	if err := sys.LoadCSVReader("P", strings.NewReader("id,name,x\n1,alice,0.5\n2,bob,1.5\n3,carol,2.5\n"), true, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadCSVReader("Q", strings.NewReader("id,n\n1,10\n2,20\n"), true, 0); err != nil {
		t.Fatal(err)
	}
	return sys
}

// A comparison storage.Compare cannot make, or SUM / AVG of a string
// column, is a parse error raised at bind — by Estimate as well as Query,
// never retryable — not a panic the executor recovers as a retryable
// ErrInternal. Comparable types still mix (an int64 column meets a float64
// constant), and a table with declared statistics has no column types, so
// the same text estimates there.
func TestTypeMismatchIsAParseError(t *testing.T) {
	sys := typeMismatchSystem(t)
	for _, sql := range typeMismatchSQL {
		_, qerr := sys.Query(sql, AlgorithmELS)
		_, eerr := sys.Estimate(sql, AlgorithmELS)
		for _, err := range []error{qerr, eerr} {
			if !errors.Is(err, ErrParse) || errors.Is(err, ErrInternal) || Retryable(err) {
				t.Errorf("%q: err = %v, want a non-retryable ErrParse", sql, err)
			}
		}
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM P WHERE P.id < 2.5 AND P.name = 'bob'",
		"SELECT COUNT(*) FROM P, Q WHERE P.id = Q.id AND P.x < Q.n",
		"SELECT SUM(P.x), AVG(P.id), MIN(P.name) FROM P",
	} {
		if _, err := sys.Query(sql, AlgorithmELS); err != nil {
			t.Errorf("%q: %v", sql, err)
		}
	}
	declared := New()
	declared.MustDeclareStats("P", 100, map[string]float64{"id": 100, "name": 50})
	if _, err := declared.Estimate("SELECT COUNT(*) FROM P WHERE P.name < 5", AlgorithmELS); err != nil {
		t.Errorf("declared statistics: %v", err)
	}
}
