package els

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cardest"
	"repro/internal/executor"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/querygen"
)

// chainSystem builds a system over three 400-row tables joined on k.
func chainSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	for i, name := range []string{"A", "B", "C"} {
		if err := sys.GenerateTable(name, "k", "uniform", 400, 20, 0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

const chainSQL = "SELECT COUNT(*) FROM A, B, C WHERE A.k = B.k AND B.k = C.k"

// crossSQL has no join predicate, so the optimizer's only applicable
// method is nested loops.
const crossSQL = "SELECT COUNT(*) FROM A, B"

// Cancelling from another goroutine while the query is inside a join must
// end it with a clean typed ErrCanceled. The join's probe is delayed far
// past the test's own length, and the cancel waits until the probe has
// fired, so it lands mid-join on every run.
func TestCancelMidJoin(t *testing.T) {
	sys := New()
	for _, name := range []string{"X", "Y", "Z"} {
		if err := sys.GenerateTable(name, "k", "uniform", 120, 1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable(executor.PointJoin, faultinject.Fault{Delay: time.Hour})
	defer faultinject.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for faultinject.Hits(executor.PointJoin) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err := sys.QueryContext(ctx, "SELECT COUNT(*) FROM X, Y, Z WHERE X.k = Y.k AND Y.k = Z.k", AlgorithmELS)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// The goroutine-leak fence: after a storm of queries — successes,
// cancellations, budget trips, injected faults, injected panics — the
// process must return to its baseline goroutine count.
func TestNoGoroutineLeaks(t *testing.T) {
	sys := chainSystem(t)
	// Warm up once so lazily started runtime goroutines don't count as leaks.
	if _, err := sys.Query(chainSQL, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0: // success
				if _, err := sys.Query(chainSQL, AlgorithmELS); err != nil {
					t.Errorf("query %d: %v", i, err)
				}
			case 1: // immediate cancellation
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := sys.QueryContext(ctx, chainSQL, AlgorithmELS); !errors.Is(err, ErrCanceled) {
					t.Errorf("query %d: want ErrCanceled, got %v", i, err)
				}
			case 2: // tuple budget trip inside the operators
				gsys := chainSystem(t)
				gsys.SetLimits(Limits{MaxTuples: 50})
				if _, err := gsys.Query(chainSQL, AlgorithmELS); !errors.Is(err, ErrBudgetExceeded) {
					t.Errorf("query %d: want ErrBudgetExceeded, got %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()

	// Injected fault and panic, serially, for the abort paths not covered
	// above.
	faultinject.Enable(executor.PointJoin, faultinject.Fault{Err: fmt.Errorf("fence fault"), Times: 1})
	sys.Query(chainSQL, AlgorithmELS)
	faultinject.Reset()
	faultinject.Enable(executor.PointScan, faultinject.Fault{PanicValue: "fence panic", Times: 1})
	sys.Query(chainSQL, AlgorithmELS)
	faultinject.Reset()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after storm", before, runtime.NumGoroutine())
}

// moduleGoroutines counts the goroutines running, or started by, this
// module's code.
func moduleGoroutines() int {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		if bytes.Contains(g, []byte("\nrepro")) || bytes.Contains(g, []byte("created by repro")) {
			count++
		}
	}
	return count
}

// The two Workers fields and Limits.DisableColumnar, which the frozen bench/
// still sets, must change nothing: whatever their value, a query yields the
// same rows, counters, byte-ledger peak and Explain text through the public
// API, the same plan and governor charges underneath, and runs on the
// calling goroutine alone.
func TestWorkersFieldIsInert(t *testing.T) {
	type outcome struct {
		rows                       [][]string
		count, tuples, comparisons int64
		peak                       int64
		analyze, explain           string
	}
	var want *outcome
	for _, limits := range []Limits{{Workers: 0}, {Workers: 1}, {Workers: 8}, {DisableColumnar: true}} {
		sys := chainSystem(t)
		sys.SetLimits(limits)
		var got outcome
		for _, sql := range []string{chainSQL, crossSQL, "SELECT * FROM A, B WHERE A.k = B.k AND A.k < 3"} {
			// Sample the goroutine count from one extra goroutine while the
			// query runs on this one. The runtime starts goroutines of its own
			// that NumGoroutine counts for a moment (a process's first GC
			// starts its mark workers), so a count above the baseline is
			// checked against the goroutines running this module's code.
			base, own := runtime.NumGoroutine()+1, moduleGoroutines()+1
			var most atomic.Int64
			most.Store(int64(own))
			stop, sampled := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(sampled)
				for {
					if runtime.NumGoroutine() > base {
						most.Store(max(most.Load(), int64(moduleGoroutines())))
					}
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			res, err := sys.Query(sql, AlgorithmELS)
			close(stop)
			<-sampled
			if err != nil {
				t.Fatalf("%+v %q: %v", limits, sql, err)
			}
			if most.Load() > int64(own) {
				t.Errorf("%+v %q: %d goroutines running this module during Query, %d before it", limits, sql, most.Load()-1, own-1)
			}
			explain, err := sys.Explain(sql, AlgorithmELS)
			if err != nil {
				t.Fatalf("%+v explain %q: %v", limits, sql, err)
			}
			got.rows = append(got.rows, res.Rows...)
			got.count += res.Count
			got.tuples += res.TuplesScanned
			got.comparisons += res.Comparisons
			got.peak += res.PeakMemoryBytes
			got.analyze += res.FormatAnalyze()
			got.explain += explain
		}
		if want == nil {
			want = &got
		} else if !reflect.DeepEqual(got, *want) {
			t.Errorf("Limits %+v changed the outcome:\n got  %+v\n want %+v", limits, got, *want)
		}
	}

	// Underneath the API: optimizer.Options.Workers picks the same plan and
	// governor.Limits.Workers is charged the same tuples and rows.
	q := querygen.Generate(7)
	cat, _ := planGenerated(t, q)
	var wantPlan string
	var wantUsage [3]int64
	for _, n := range []int{0, 1, 8} {
		est, err := cardest.New(cat, q.Tables, q.Preds, cardest.ELS())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := optimizer.New(est, optimizer.Options{Methods: q.Methods, Workers: n})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.BestPlan()
		if err != nil {
			t.Fatal(err)
		}
		gov := governor.New(context.Background(), governor.Limits{Workers: n})
		if _, err := executor.NewGoverned(cat, gov).Execute(plan); err != nil {
			t.Fatal(err)
		}
		tuples, rows, _ := gov.Usage()
		_, peak, _ := gov.MemoryUsage()
		usage := [3]int64{tuples, rows, peak}
		if n == 0 {
			wantPlan, wantUsage = optimizer.Format(plan), usage
		} else if optimizer.Format(plan) != wantPlan || usage != wantUsage {
			t.Errorf("Workers=%d: plan\n%scharges %v; Workers=0: plan\n%scharges %v",
				n, optimizer.Format(plan), usage, wantPlan, wantUsage)
		}
	}
}
