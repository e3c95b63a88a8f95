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
	"repro/internal/governor"
	"repro/internal/wire"
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

// sentinelsMatched counts the taxonomy sentinels err matches.
func sentinelsMatched(err error) int {
	n := 0
	for _, row := range governor.Taxonomy() {
		if errors.Is(err, row.Err) {
			n++
		}
	}
	return n
}

// loadFailures are load calls that must fail with ErrBadStats and a message
// naming what was wrong. A CSV is rejected whether or not histograms are
// requested.
var loadFailures = []struct {
	name string
	load func(sys *System) error
	want string
}{
	{"LoadCSV missing file", func(sys *System) error {
		return sys.LoadCSV("T", "no-such-dir/missing.csv", true, 0)
	}, "missing.csv"},
	{"LoadCSVReader wrong arity", func(sys *System) error {
		return sys.LoadCSVReader("T", strings.NewReader("a,b\n1,2\n3\n"), true, 0)
	}, "line 3"},
	{"LoadCSVReader bad quote", func(sys *System) error {
		return sys.LoadCSVReader("T", strings.NewReader("a,b\n1,x\"y\n"), true, 0)
	}, "line 2"},
	{"LoadCSVReader empty input", func(sys *System) error {
		return sys.LoadCSVReader("T", strings.NewReader(""), true, 0)
	}, "empty input"},
	{"LoadCSVReader NaN with histograms", func(sys *System) error {
		return sys.LoadCSVReader("T", strings.NewReader("a\n1.5\nNaN\n"), true, 4)
	}, "line 3"},
	{"LoadCSVReader NaN without histograms", func(sys *System) error {
		return sys.LoadCSVReader("T", strings.NewReader("a\n1.5\nNaN\n"), true, 0)
	}, "line 3"},
	{"LoadTable duplicate column", func(sys *System) error {
		return sys.LoadTable("T", []string{"x", "X"}, [][]int64{{1, 2}})
	}, "duplicate column"},
	{"LoadTable empty column name", func(sys *System) error {
		return sys.LoadTable("T", []string{"x", ""}, [][]int64{{1, 2}})
	}, "empty name"},
	{"LoadTableHist duplicate column", func(sys *System) error {
		return sys.LoadTableHist("T", []string{"x", "x"}, [][]int64{{1, 2}}, 4)
	}, "duplicate column"},
	{"GenerateTable negative rows", func(sys *System) error {
		return sys.GenerateTable("T", "k", "uniform", -1, 10, 0, 1)
	}, "negative row count"},
	{"BuildIndex unknown table", func(sys *System) error {
		return sys.BuildIndex("Nope", "x")
	}, "Nope"},
	{"BuildIndex unknown column", func(sys *System) error {
		if err := sys.LoadTable("T", []string{"x"}, [][]int64{{1}}); err != nil {
			return err
		}
		return sys.BuildIndex("T", "nope")
	}, "nope"},
}

// Every load path reports bad input as ErrBadStats and nothing else,
// keeping the positioned message.
func TestLoadErrorsAreBadStats(t *testing.T) {
	for _, tc := range loadFailures {
		t.Run(tc.name, func(t *testing.T) {
			sys := New()
			err := tc.load(sys)
			if !errors.Is(err, ErrBadStats) || sentinelsMatched(err) != 1 {
				t.Fatalf("err = %v, want only ErrBadStats", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("message %q does not contain %q", err, tc.want)
			}
		})
	}
}

// FuzzLoadCSV holds System.LoadCSVReader to the typed-error contract on any
// input: it succeeds, or fails with exactly one taxonomy sentinel other
// than ErrInternal, and never panics. Whether it fails does not depend on
// whether histograms are requested.
func FuzzLoadCSV(f *testing.F) {
	for _, seed := range []string{
		"a,b\n1,2\n3,4\n", "a,b\n1,2\n3\n", "a,b\n1,x\"y\n", "", "a\n1.5\nNaN\n",
		"a,a\n1,2\n", "a,\n1,2\n", "k,v\n1,NULL\n2,\n3,null\n", "x\n-0\n0\n1e308\n-Inf\n",
		"s,n\n\"quoted, comma\",7\nplain,8\n", "a,b\n1,\"two\nlines\"\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		var errs [2]error
		for i, buckets := range []int{0, 4} {
			err := New().LoadCSVReader("T", strings.NewReader(data), true, buckets)
			if err != nil && (sentinelsMatched(err) != 1 || errors.Is(err, ErrInternal)) {
				t.Fatalf("histogram buckets %d: err = %v, want one sentinel other than ErrInternal", buckets, err)
			}
			errs[i] = err
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("without histograms err = %v, with histograms err = %v", errs[0], errs[1])
		}
	})
}

// unloadedSystem holds two loaded tables R(a, b) and S(a, b), a table P
// with declared statistics only, and a table D loaded as (a, b) whose
// statistics were then redeclared as (a, c), so D.c has statistics but no
// data.
func unloadedSystem(t testing.TB) *System {
	t.Helper()
	sys := New()
	for name, rows := range map[string][][]int64{
		"R": {{1, 10}, {2, 20}, {3, 30}},
		"S": {{1, 5}, {2, 25}, {2, 35}},
		"D": {{1, 7}, {3, 9}},
	} {
		if err := sys.LoadTable(name, []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	sys.MustDeclareStats("P", 100, map[string]float64{"id": 100, "name": 50})
	sys.MustDeclareStats("D", 2, map[string]float64{"a": 2, "c": 2})
	return sys
}

// A statement reading a table or a column the catalog has statistics for
// but no data is a parse error naming it — never retryable, in process or
// over the wire — and the same statement still estimates.
func TestUnloadedDataIsAParseError(t *testing.T) {
	sys := unloadedSystem(t)
	for _, c := range []struct{ sql, want string }{
		{"SELECT COUNT(*) FROM P", `table "P" has no loaded data`},
		{"SELECT COUNT(*) FROM D WHERE D.c = 1", "D.c"},
		{"SELECT COUNT(*) FROM D, S WHERE D.c = S.a", "D.c"},
		{"SELECT D.c FROM D", "D.c"},
		{"SELECT D.c, COUNT(*) FROM D GROUP BY D.c", "D.c"},
	} {
		_, err := sys.Query(c.sql, AlgorithmELS)
		if !errors.Is(err, ErrParse) || sentinelsMatched(err) != 1 || Retryable(err) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want only a non-retryable ErrParse naming %s", c.sql, err, c.want)
			continue
		}
		we := wire.FromError(err, 0)
		remote := &wire.RemoteError{Wire: *we}
		if we.Code != "parse" || we.Retryable || !errors.Is(remote, ErrParse) || Retryable(remote) {
			t.Errorf("%q over the wire: code %q, retryable %v", c.sql, we.Code, we.Retryable)
		}
		if _, err := sys.Estimate(c.sql, AlgorithmELS); err != nil {
			t.Errorf("%q: Estimate: %v", c.sql, err)
		}
	}
	if _, err := sys.Query("SELECT D.a FROM D, S WHERE D.a = S.a", AlgorithmELS); err != nil {
		t.Errorf("a loaded column of D: %v", err)
	}
}

// unsupportedShapes are statement shapes of other SQL engines' grammars
// (DDL, DML, JOIN … ON, HAVING, ORDER BY, LIMIT) outside the conjunctive
// subset this one parses: each is a parse error, never a misparse.
var unsupportedShapes = []string{
	"CREATE TABLE T (a BIGINT, b VARCHAR(10))",
	"INSERT INTO R (a, b) VALUES (1, 2)",
	"SELECT COUNT(*) FROM R JOIN S ON R.a = S.a",
	"SELECT R.a, COUNT(*) FROM R GROUP BY R.a HAVING COUNT(*) > 1",
	"SELECT R.a FROM R ORDER BY R.a DESC",
	"SELECT R.a FROM R LIMIT 5",
}

// FuzzQuerySQL holds SQL text, through the whole pipeline, to the
// typed-error contract: System.Query and System.Estimate each succeed or
// fail with exactly one taxonomy sentinel other than ErrInternal, over two
// loaded tables, one with declared statistics only, and one whose
// statistics and data disagree.
func FuzzQuerySQL(f *testing.F) {
	sys := unloadedSystem(f)
	sys.SetLimits(Limits{MaxTuples: 1 << 20, MaxRows: 1 << 16, MaxPlans: 1 << 12})
	for _, sql := range unsupportedShapes {
		if _, err := sys.Query(sql, AlgorithmELS); !errors.Is(err, ErrParse) {
			f.Errorf("%q: err = %v, want ErrParse", sql, err)
		}
		f.Add(sql)
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM R x, R Y WHERE x.a = Y.a AND X.b < y.B",
		"SELECT * FROM r, s WHERE R.A = s.a",
		"SELECT COUNT(*) FROM R, S WHERE (R.b = 10 OR R.b = 30) AND R.a = S.a",
		"SELECT R.a, COUNT(*), SUM(R.b) FROM R, S WHERE R.a = S.a GROUP BY R.a",
		"SELECT COUNT(*) FROM R, S, P WHERE R.a = S.a AND S.a = P.id",
		"SELECT COUNT(*) FROM D, R WHERE D.c = R.b AND D.a < 3",
		"SELECT R.b FROM R WHERE R.a < 2.5",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		_, qerr := sys.Query(sql, AlgorithmELS)
		_, eerr := sys.Estimate(sql, AlgorithmELS)
		for _, err := range []error{qerr, eerr} {
			if err != nil && (sentinelsMatched(err) != 1 || errors.Is(err, ErrInternal)) {
				t.Fatalf("%q: err = %v, want one sentinel other than ErrInternal", sql, err)
			}
		}
	})
}
