package els

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/faultinject"
)

// loadedSystem returns a system with three joinable data tables.
func loadedSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	for i, name := range []string{"A", "B", "C"} {
		if err := sys.GenerateTable(name, "k", "uniform", 200, 20, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

const joinSQL = "SELECT COUNT(*) FROM A, B, C WHERE A.k = B.k AND B.k = C.k"

// A context that is dead on arrival must yield ErrCanceled from every
// public entry point without doing any work.
func TestPreCancelledContext(t *testing.T) {
	sys := loadedSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := sys.QueryContext(ctx, joinSQL, AlgorithmELS); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Query: want ErrCanceled, got %v", err)
	}
	if _, err := sys.EstimateContext(ctx, joinSQL, AlgorithmELS); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Estimate: want ErrCanceled, got %v", err)
	}
	if _, err := sys.ExplainContext(ctx, joinSQL, AlgorithmELS); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Explain: want ErrCanceled, got %v", err)
	}
	if _, err := sys.EstimateOrderContext(ctx, joinSQL, AlgorithmELS, []string{"A", "B", "C"}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("EstimateOrder: want ErrCanceled, got %v", err)
	}
	if _, err := sys.CompareAlgorithmsContext(ctx, joinSQL); !errors.Is(err, ErrCanceled) {
		t.Fatalf("CompareAlgorithms: want ErrCanceled, got %v", err)
	}
}

// A one-tuple budget must abort execution with ErrBudgetExceeded naming
// the tuples resource.
func TestTupleBudget(t *testing.T) {
	sys := loadedSystem(t)
	sys.SetLimits(Limits{MaxTuples: 1})
	_, err := sys.Query(joinSQL, AlgorithmELS)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" {
		t.Fatalf("want tuples BudgetError, got %#v", err)
	}
	// Estimation does not scan tuples, so it stays unaffected.
	if _, err := sys.Estimate(joinSQL, AlgorithmELS); err != nil {
		t.Fatalf("estimate under tuple budget: %v", err)
	}
}

// A one-row materialization budget must abort execution.
func TestRowBudget(t *testing.T) {
	sys := loadedSystem(t)
	sys.SetLimits(Limits{MaxRows: 1})
	if _, err := sys.Query(joinSQL, AlgorithmELS); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

// A one-plan budget must abort planning, and therefore pure estimation
// too.
func TestPlanBudget(t *testing.T) {
	sys := loadedSystem(t)
	sys.SetLimits(Limits{MaxPlans: 1})
	if _, err := sys.Estimate(joinSQL, AlgorithmELS); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("estimate: want ErrBudgetExceeded, got %v", err)
	}
	if _, err := sys.Query(joinSQL, AlgorithmELS); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("query: want ErrBudgetExceeded, got %v", err)
	}
	sys.SetLimits(Limits{})
	if _, err := sys.Query(joinSQL, AlgorithmELS); err != nil {
		t.Fatalf("zero limits must lift governance: %v", err)
	}
}

// An immediate wall-clock deadline must abort with the wall-clock budget
// error.
func TestWallClockBudget(t *testing.T) {
	sys := loadedSystem(t)
	sys.SetLimits(Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := sysQueryAnyEntry(sys)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "wall-clock" {
		t.Fatalf("want wall-clock BudgetError, got %#v", err)
	}
}

func sysQueryAnyEntry(sys *System) error {
	_, err := sys.Query(joinSQL, AlgorithmELS)
	return err
}

// A panic injected deep in the executor must be recovered at the API
// boundary as ErrInternal carrying the stack, not crash the caller.
func TestPanicRecovery(t *testing.T) {
	defer faultinject.Reset()
	sys := loadedSystem(t)
	faultinject.Enable(executor.PointScan, faultinject.Fault{PanicValue: "scan exploded", Times: 1})
	_, err := sys.Query(joinSQL, AlgorithmELS)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want InternalError, got %T", err)
	}
	if ie.Value != "scan exploded" || len(ie.Stack) == 0 {
		t.Fatalf("internal error must carry panic value and stack, got %#v", ie)
	}
	// The system stays usable afterwards.
	if _, err := sys.Query(joinSQL, AlgorithmELS); err != nil {
		t.Fatalf("query after recovered panic: %v", err)
	}
}

// A panic injected during estimator construction is likewise recovered.
func TestPanicRecoveryInEstimator(t *testing.T) {
	defer faultinject.Reset()
	sys := loadedSystem(t)
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{PanicValue: "stats exploded", Times: 1})
	if _, err := sys.Estimate(joinSQL, AlgorithmELS); !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
}

// An injected executor failure surfaces as a plain error (no panic, no
// hang), and the injection disarms itself.
func TestInjectedExecutorError(t *testing.T) {
	defer faultinject.Reset()
	sys := loadedSystem(t)
	boom := errors.New("disk on fire")
	faultinject.Enable(executor.PointJoin, faultinject.Fault{Err: boom, Times: 1})
	if _, err := sys.Query(joinSQL, AlgorithmELS); !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	if _, err := sys.Query(joinSQL, AlgorithmELS); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

// Corrupt catalog statistics (NaN / negative cardinalities injected at the
// estimator's probe point) must degrade to the documented fallbacks and
// still produce a finite, non-negative estimate with warnings attached.
func TestCorruptStatsEstimateStaysFinite(t *testing.T) {
	defer faultinject.Reset()
	sys := loadedSystem(t)
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Payload: func(ts *catalog.TableStats) {
			ts.Card = math.NaN()
			for _, cs := range ts.Columns {
				cs.Distinct = -7
			}
		},
		Times: 1,
	})
	est, err := sys.Estimate(joinSQL, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(est.FinalSize) || math.IsInf(est.FinalSize, 0) || est.FinalSize < 0 {
		t.Fatalf("estimate %g is not finite and non-negative", est.FinalSize)
	}
	if len(est.Warnings) == 0 {
		t.Fatal("degraded estimate must carry warnings")
	}
	for _, w := range est.Warnings {
		if strings.Contains(w, "invalid") {
			return
		}
	}
	t.Fatalf("warnings do not mention the repair: %v", est.Warnings)
}

// Explain surfaces degradation warnings to humans.
func TestExplainShowsWarnings(t *testing.T) {
	defer faultinject.Reset()
	sys := loadedSystem(t)
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Payload: func(ts *catalog.TableStats) { ts.Card = math.NaN() },
		Times:   1,
	})
	out, err := sys.Explain(joinSQL, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "warning:") {
		t.Fatalf("explain output lacks warnings:\n%s", out)
	}
}

// A table with several repaired columns warns about them in column order,
// so one query explains to one text however often it is planned.
func TestRepairWarningsInColumnOrder(t *testing.T) {
	sys := New()
	sys.SetLimits(Limits{DisableCache: true}) // plan every Explain afresh
	if err := sys.DeclareStats("R", 1000, map[string]float64{"a": 0, "b": 0, "c": 0, "x": 10}); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeclareStats("S", 1000, map[string]float64{"y": 10}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.x = S.y"
	first, err := sys.Explain(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	// Each column warns of its cardinality, then of its range.
	var columns []string
	for _, line := range strings.Split(first, "\n") {
		if _, rest, ok := strings.Cut(line, "warning: table R column "); ok {
			columns = append(columns, rest[:1])
		}
	}
	if want := []string{"a", "a", "b", "b", "c", "c"}; !slices.Equal(columns, want) {
		t.Fatalf("warnings name columns %v, want %v:\n%s", columns, want, first)
	}
	for i := 0; i < 50; i++ {
		out, err := sys.Explain(sql, AlgorithmELS)
		if err != nil {
			t.Fatal(err)
		}
		if out != first {
			t.Fatalf("explain %d differs:\n%s\nfirst:\n%s", i, out, first)
		}
	}
}

// A catalog-load failure injected at ANALYZE surfaces as a plain typed
// error from the loading API.
func TestInjectedAnalyzeFailure(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("stats collector crashed")
	faultinject.Enable(catalog.PointAnalyze, faultinject.Fault{Err: boom, Times: 1})
	sys := New()
	err := sys.LoadTable("T", []string{"x"}, [][]int64{{1}, {2}})
	if !errors.Is(err, boom) {
		t.Fatalf("want injected analyze error, got %v", err)
	}
}

// Declaring garbage statistics is rejected up front with ErrBadStats.
func TestDeclareStatsRejectsGarbage(t *testing.T) {
	sys := New()
	if err := sys.DeclareStats("R", -1, nil); !errors.Is(err, ErrBadStats) {
		t.Fatalf("negative rows: want ErrBadStats, got %v", err)
	}
	if err := sys.DeclareStats("R", math.NaN(), nil); !errors.Is(err, ErrBadStats) {
		t.Fatalf("NaN rows: want ErrBadStats, got %v", err)
	}
	if err := sys.DeclareStats("R", 10, map[string]float64{"x": -2}); !errors.Is(err, ErrBadStats) {
		t.Fatalf("negative distinct: want ErrBadStats, got %v", err)
	}
}

// Malformed SQL fails with ErrParse (and not any other class).
func TestParseErrorsAreTyped(t *testing.T) {
	sys := loadedSystem(t)
	_, err := sys.Query("SELECT FROM WHERE", AlgorithmELS)
	if !errors.Is(err, ErrParse) {
		t.Fatalf("want ErrParse, got %v", err)
	}
	if errors.Is(err, ErrInternal) || errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("parse failure must not match other classes")
	}
}
