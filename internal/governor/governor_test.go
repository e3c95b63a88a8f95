package governor

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilGovernorIsNoOp(t *testing.T) {
	var g *Governor
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if err := g.TickTuples(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := g.TickRows(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := g.TickPlans(1 << 40); err != nil {
		t.Fatal(err)
	}
	if g.Context() == nil {
		t.Fatal("nil governor must return a usable context")
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(ctx, Limits{})
	err := g.Err()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("canceled must not match ErrBudgetExceeded")
	}
}

func TestContextDeadlineMapsToBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g := New(ctx, Limits{})
	err := g.Err()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "wall-clock" {
		t.Fatalf("want wall-clock BudgetError, got %#v", err)
	}
}

func TestTimeoutLimit(t *testing.T) {
	g := New(context.Background(), Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	err := g.Err()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestTupleBudget(t *testing.T) {
	g := New(context.Background(), Limits{MaxTuples: 10})
	var err error
	for i := 0; i < 11 && err == nil; i++ {
		err = g.TickTuples(1)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" || be.Limit != 10 {
		t.Fatalf("unexpected budget error %#v", be)
	}
}

func TestRowAndPlanBudgets(t *testing.T) {
	g := New(context.Background(), Limits{MaxRows: 1})
	if err := g.TickRows(1); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := g.TickRows(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	g = New(context.Background(), Limits{MaxPlans: 2})
	if err := g.TickPlans(3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("plan budget not enforced")
	}
}

func TestAmortizedCancellationDetection(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	cancel()
	// The poll is amortized: within at most 2×checkInterval ticks the
	// cancellation must surface.
	var err error
	for i := 0; i < 2*checkInterval && err == nil; i++ {
		err = g.TickTuples(1)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancellation never surfaced: %v", err)
	}
}

func TestUsage(t *testing.T) {
	g := New(context.Background(), Limits{})
	g.TickTuples(5)
	g.TickRows(2)
	g.TickPlans(1)
	tu, ro, pl := g.Usage()
	if tu != 5 || ro != 2 || pl != 1 {
		t.Fatalf("usage = %d %d %d", tu, ro, pl)
	}
}

func TestEnforced(t *testing.T) {
	if (Limits{}).Enforced() {
		t.Fatal("zero limits must not be enforced")
	}
	if !(Limits{MaxTuples: 1}).Enforced() {
		t.Fatal("MaxTuples must count as enforced")
	}
	if (Limits{Workers: 8}).Enforced() {
		t.Fatal("the inert Workers field is not a budget")
	}
}

// Concurrent ticking from many goroutines must account every tuple exactly
// once.
func TestConcurrentTickAccountingExact(t *testing.T) {
	const goroutines, ticks = 8, 5000
	g := New(context.Background(), Limits{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ticks; i++ {
				g.TickTuples(1)
				g.TickRows(1)
				g.TickPlans(1)
			}
		}()
	}
	wg.Wait()
	tu, ro, pl := g.Usage()
	if want := int64(goroutines * ticks); tu != want || ro != want || pl != want {
		t.Fatalf("usage = %d %d %d, want %d each", tu, ro, pl, want)
	}
}

// When concurrent tickers overrun a budget, at least one of them must see
// the typed budget error.
func TestConcurrentBudgetTripsOnce(t *testing.T) {
	const goroutines = 8
	g := New(context.Background(), Limits{MaxTuples: 1000})
	var wg sync.WaitGroup
	var tripped atomic.Int64
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := g.TickTuples(1); err != nil {
					if !errors.Is(err, ErrBudgetExceeded) {
						t.Errorf("want ErrBudgetExceeded, got %v", err)
					}
					tripped.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tripped.Load() == 0 {
		t.Fatal("budget overrun never detected by any worker")
	}
	tu, _, _ := g.Usage()
	if want := int64(1000 + goroutines); tu > want {
		t.Fatalf("tuples charged = %d; overshoot must be bounded by worker count (≤ %d)", tu, want)
	}
}

func TestInternalError(t *testing.T) {
	err := NewInternal("boom", []byte("stack"))
	if !errors.Is(err, ErrInternal) {
		t.Fatal("InternalError must match ErrInternal")
	}
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Value != "boom" || string(ie.Stack) != "stack" {
		t.Fatalf("unexpected internal error %#v", ie)
	}
}
