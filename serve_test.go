package els

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cardest"
	"repro/internal/executor"
	"repro/internal/faultinject"
)

func testServeSystem(t *testing.T) *System {
	t.Helper()
	sys := New()
	mkRows := func(n, dom int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(i % dom), int64(i % 7)}
		}
		return rows
	}
	if err := sys.LoadTable("R", []string{"a", "b"}, mkRows(200, 10)); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("S", []string{"a", "c"}, mkRows(300, 10)); err != nil {
		t.Fatal(err)
	}
	return sys
}

const serveJoinSQL = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5"

// Every query pins the catalog version current at admission, and the
// version is surfaced through Estimate.CatalogVersion and Explain.
func TestQueriesPinCatalogVersion(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("V", 100, map[string]float64{"x": 10})
	v := sys.CatalogVersion()
	est, err := sys.Estimate("SELECT COUNT(*) FROM V", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.CatalogVersion != v {
		t.Fatalf("estimate pinned version %d, current is %d", est.CatalogVersion, v)
	}
	if est.FinalSize != 100 {
		t.Fatalf("estimate %g, want 100", est.FinalSize)
	}
	// Mutating publishes a new version; new estimates see it.
	sys.MustDeclareStats("V", 500, map[string]float64{"x": 10})
	if got := sys.CatalogVersion(); got != v+1 {
		t.Fatalf("version %d after mutation, want %d", got, v+1)
	}
	est2, err := sys.Estimate("SELECT COUNT(*) FROM V", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est2.CatalogVersion != v+1 || est2.FinalSize != 500 {
		t.Fatalf("post-mutation estimate: version %d size %g, want %d/500", est2.CatalogVersion, est2.FinalSize, v+1)
	}
	out, err := sys.Explain("SELECT COUNT(*) FROM V", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("catalog version: %d", v+1)
	if !strings.Contains(out, want) {
		t.Fatalf("Explain output missing %q:\n%s", want, out)
	}
}

// A failed ImportStats publishes nothing: the catalog version does not
// advance and queries keep estimating against the old statistics.
func TestFailedImportPublishesNothing(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("V", 100, map[string]float64{"x": 10})
	v := sys.CatalogVersion()
	if err := sys.ImportStats(strings.NewReader("{bad")); err == nil {
		t.Fatal("malformed import should error")
	}
	if got := sys.CatalogVersion(); got != v {
		t.Fatalf("failed import advanced version %d -> %d", v, got)
	}
	est, err := sys.Estimate("SELECT COUNT(*) FROM V", AlgorithmELS)
	if err != nil || est.FinalSize != 100 {
		t.Fatalf("estimate after failed import: %v, %v", est, err)
	}
}

// MaxConcurrent=1 serializes queries; a queued query with a QueueTimeout
// sheds with ErrOverloaded and errors.As exposes the OverloadError.
func TestAdmissionShedsUnderLoad(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetLimits(Limits{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 10 * time.Millisecond})

	// Occupy the only slot with a query canceled by us later.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	faultinject.Enable(executor.PointScan, faultinject.Fault{Delay: 300 * time.Millisecond})
	defer faultinject.Reset()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, _ = sys.QueryContext(ctx, serveJoinSQL, AlgorithmELS)
	}()
	<-started
	// Wait for the slot to be taken.
	for sys.Stats().Robustness.InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	_, err := sys.QueryContext(context.Background(), serveJoinSQL, AlgorithmELS)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued query err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue timeout" {
		t.Fatalf("err = %v, want queue-timeout OverloadError", err)
	}
	cancel()
	wg.Wait()
	st := sys.Stats().Robustness
	if st.ShedQueueTimeout != 1 || st.InFlight != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.QueueWait <= 0 {
		t.Fatalf("no queue wait recorded: %+v", st)
	}
}

// Close drains gracefully: in-flight queries finish, subsequent queries
// fail fast with ErrClosed, and the catalog becomes read-only.
func TestCloseDrainsSystem(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetLimits(Limits{MaxConcurrent: 4})
	var inFlightErrs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.Query(serveJoinSQL, AlgorithmELS); err != nil {
				inFlightErrs.Add(1)
			}
		}()
	}
	// Let some queries get admitted, then drain.
	time.Sleep(2 * time.Millisecond)
	if err := sys.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := sys.Stats().Robustness
	if st.InFlight != 0 {
		t.Fatalf("in-flight after Close: %+v", st)
	}
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close query err = %v, want ErrClosed", err)
	}
	if err := sys.DeclareStats("T", 10, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close mutation err = %v, want ErrClosed", err)
	}
}

// A straggler that outlives Close's deadline is canceled mid-drain and
// Close still returns with zero in flight.
func TestCloseCancelsStragglerMidDrain(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetLimits(Limits{MaxConcurrent: 2})
	// The straggler: a query slowed by an injected latency fault so it is
	// still running when the drain deadline expires. The executor sleeps
	// the delay interruptibly against the serving context, so the
	// mid-drain cancellation aborts it immediately.
	faultinject.Enable(executor.PointScan, faultinject.Fault{Delay: 2 * time.Second})
	defer faultinject.Reset()
	errCh := make(chan error, 1)
	go func() {
		_, err := sys.QueryContext(context.Background(), serveJoinSQL, AlgorithmELS)
		errCh <- err
	}()
	for sys.Stats().Robustness.InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := sys.Close(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Close took %v; straggler was not canceled", elapsed)
	}
	if st := sys.Stats().Robustness; st.InFlight != 0 {
		t.Fatalf("in-flight after forced drain: %+v", st)
	}
	qerr := <-errCh
	if !errors.Is(qerr, ErrCanceled) {
		t.Fatalf("straggler err = %v, want ErrCanceled", qerr)
	}
}

// The retry policy retries injected internal faults with seeded backoff
// and succeeds once the fault schedule is exhausted.
func TestRetryRecoversFromTransientFaults(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, Seed: 7})
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Err:   fmt.Errorf("%w: injected transient", ErrInternal),
		Times: 2, // first two attempts fail, third succeeds
	})
	defer faultinject.Reset()
	res, err := sys.Query(serveJoinSQL, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("retried query returned no rows")
	}
	st := sys.Stats().Robustness
	if st.Retries != 2 || st.RetrySuccesses != 1 {
		t.Fatalf("stats %+v, want 2 retries, 1 retry success", st)
	}
}

// Retry gives up after MaxAttempts and returns the internal error.
func TestRetryExhaustsAttempts(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, Seed: 7})
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Err: fmt.Errorf("%w: injected persistent", ErrInternal),
	})
	defer faultinject.Reset()
	_, err := sys.Query(serveJoinSQL, AlgorithmELS)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if hits := faultinject.Hits(cardest.PointNewQuery); hits != 3 {
		t.Fatalf("pipeline entered %d times, want 3 (MaxAttempts)", hits)
	}
}

// Panics inside the pipeline are retried too: recovery happens per
// attempt, so a transient panic behaves like a transient error.
func TestRetryRecoversFromTransientPanic(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, Seed: 3})
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{PanicValue: "transient boom", Times: 1})
	defer faultinject.Reset()
	res, err := sys.Query(serveJoinSQL, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("no rows after panic retry")
	}
}

// Regression for the probe-leak bug: a probe candidate that passes the
// breaker but is then shed by admission must not strand the breaker with a
// phantom in-flight probe — once capacity frees, the next query probes and
// closes it. (The probe is booked only after a slot is acquired, so a shed
// between the breaker gate and admission leaves the breaker untouched.)
func TestBreakerProbeSurvivesAdmissionShed(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetBreaker(BreakerPolicy{Threshold: 1, Cooldown: time.Millisecond})
	// Two slow occupiers admitted while the breaker is closed.
	faultinject.Enable(executor.PointScan, faultinject.Fault{Delay: 300 * time.Millisecond})
	defer faultinject.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = sys.QueryContext(ctx, serveJoinSQL, AlgorithmELS)
		}()
	}
	for sys.Stats().Robustness.InFlight != 2 {
		time.Sleep(time.Millisecond)
	}
	// Trip the breaker with an injected internal error on a third slot.
	// The query uses a distinct constant so it misses the plan cache (the
	// occupiers warmed serveJoinSQL) and actually reaches the estimator
	// where the fault is injected.
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Err: fmt.Errorf("%w: injected", ErrInternal), Times: 1,
	})
	const trippingSQL = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 4"
	if _, err := sys.Query(trippingSQL, AlgorithmELS); !errors.Is(err, ErrInternal) {
		t.Fatalf("tripping query err = %v, want ErrInternal", err)
	}
	if st := sys.Stats().Robustness; st.BreakerState != "open" {
		t.Fatalf("breaker not open: %+v", st)
	}
	time.Sleep(5 * time.Millisecond) // cooldown over: next query is the probe candidate
	// Saturate admission so the probe candidate is shed after passing the
	// breaker gate.
	sys.SetLimits(Limits{MaxConcurrent: 2, MaxQueue: 1, QueueTimeout: 5 * time.Millisecond})
	_, err := sys.Query(serveJoinSQL, AlgorithmELS)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != "queue timeout" {
		t.Fatalf("probe candidate err = %v, want queue-timeout OverloadError (it must pass the breaker and be shed by admission)", err)
	}
	// Free the slots; the next query must still get to probe and close the
	// breaker instead of failing fast forever on a leaked probe.
	cancel()
	wg.Wait()
	faultinject.Reset()
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); err != nil {
		t.Fatalf("post-shed probe failed: %v", err)
	}
	if st := sys.Stats().Robustness; st.BreakerState != "closed" {
		t.Fatalf("breaker did not recover after a shed probe candidate: %+v", st)
	}
}

// The breaker counts queries, not attempts: a single query whose retries
// all fail internally contributes one failure to the consecutive run, so
// it cannot trip a Threshold > 1 by itself.
func TestBreakerCountsQueriesNotAttempts(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetBreaker(BreakerPolicy{Threshold: 2, Cooldown: time.Minute})
	sys.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, Seed: 5})
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Err: fmt.Errorf("%w: injected persistent", ErrInternal),
	})
	defer faultinject.Reset()
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if st := sys.Stats().Robustness; st.BreakerState != "closed" {
		t.Fatalf("one query's 3 failed attempts tripped Threshold=2: %+v", st)
	}
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if st := sys.Stats().Robustness; st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("second failed query must open the breaker: %+v", st)
	}
}

// A probe whose first attempt fails but whose retry succeeds closes the
// breaker: only the query's final outcome is recorded.
func TestBreakerProbeClosesAfterRetrySuccess(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetBreaker(BreakerPolicy{Threshold: 1, Cooldown: time.Millisecond})
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Err: fmt.Errorf("%w: injected", ErrInternal), Times: 1,
	})
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	time.Sleep(5 * time.Millisecond)
	// The probe's first attempt hits a fresh transient fault; its retry
	// succeeds, and that final success must close the breaker.
	sys.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, Seed: 9})
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Err: fmt.Errorf("%w: injected transient", ErrInternal), Times: 1,
	})
	defer faultinject.Reset()
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); err != nil {
		t.Fatalf("probe with successful retry failed: %v", err)
	}
	if st := sys.Stats().Robustness; st.BreakerState != "closed" {
		t.Fatalf("successful probe retry did not close the breaker: %+v", st)
	}
}

// ExplainDot is governed like every other serve path: cancellation and the
// plan-enumeration budget abort it with typed errors.
func TestExplainDotGoverned(t *testing.T) {
	sys := testServeSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.ExplainDotContext(ctx, serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ExplainDot err = %v, want ErrCanceled", err)
	}
	sys.SetLimits(Limits{MaxPlans: 1})
	if _, err := sys.ExplainDot(serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("plan-budget ExplainDot err = %v, want ErrBudgetExceeded", err)
	}
}

// The breaker opens after the configured run of internal errors, rejects
// with ErrOverloaded while open, and half-opens to a probe that closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	sys := testServeSystem(t)
	sys.SetBreaker(BreakerPolicy{Threshold: 2, Cooldown: 20 * time.Millisecond})
	faultinject.Enable(cardest.PointNewQuery, faultinject.Fault{
		Err: fmt.Errorf("%w: injected", ErrInternal), Times: 2,
	})
	defer faultinject.Reset()
	for i := 0; i < 2; i++ {
		if _, err := sys.Query(serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrInternal) {
			t.Fatalf("query %d err = %v, want ErrInternal", i, err)
		}
	}
	st := sys.Stats().Robustness
	if st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("stats %+v, want open breaker", st)
	}
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("open-breaker query err = %v, want ErrOverloaded", err)
	}
	time.Sleep(25 * time.Millisecond)
	// Cooldown over: this query is the half-open probe; the fault schedule
	// is exhausted, so it succeeds and closes the breaker.
	if _, err := sys.Query(serveJoinSQL, AlgorithmELS); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	st = sys.Stats().Robustness
	if st.BreakerState != "closed" || st.BreakerProbes != 1 || st.BreakerRejections != 1 {
		t.Fatalf("stats after probe %+v", st)
	}
}
