package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

func ref(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }

func section8Catalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAddTable(catalog.SimpleTable("S", 1000, map[string]float64{"s": 1000}))
	c.MustAddTable(catalog.SimpleTable("M", 10000, map[string]float64{"m": 10000}))
	c.MustAddTable(catalog.SimpleTable("B", 50000, map[string]float64{"b": 50000}))
	c.MustAddTable(catalog.SimpleTable("G", 100000, map[string]float64{"g": 100000}))
	return c
}

func section8Tables() []cardest.TableRef {
	return []cardest.TableRef{{Table: "S"}, {Table: "M"}, {Table: "B"}, {Table: "G"}}
}

func section8Preds() []expr.Predicate {
	return []expr.Predicate{
		expr.NewJoin(ref("S", "s"), expr.OpEQ, ref("M", "m")),
		expr.NewJoin(ref("M", "m"), expr.OpEQ, ref("B", "b")),
		expr.NewJoin(ref("B", "b"), expr.OpEQ, ref("G", "g")),
		expr.NewConst(ref("S", "s"), expr.OpLT, storage.Int64(100)),
	}
}

func newOptimizer(t *testing.T, cfg cardest.Config) *Optimizer {
	t.Helper()
	est, err := cardest.New(section8Catalog(), section8Tables(), section8Preds(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(est, PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestJoinMethodString(t *testing.T) {
	if NestedLoop.String() != "NL" || SortMerge.String() != "SM" || HashJoin.String() != "HASH" || JoinMethod(9).String() != "?" {
		t.Error("method names wrong")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil estimator should error")
	}
}

func TestBestPlanCoversAllTables(t *testing.T) {
	o := newOptimizer(t, cardest.ELS())
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	tabs := plan.Tables()
	sort.Strings(tabs)
	if strings.Join(tabs, ",") != "B,G,M,S" {
		t.Errorf("plan tables = %v", tabs)
	}
	if plan.Cost() <= 0 || plan.EstRows() <= 0 {
		t.Errorf("plan cost %g, rows %g", plan.Cost(), plan.EstRows())
	}
	if o.Estimator() == nil {
		t.Error("Estimator accessor nil")
	}
}

func TestPlanForOrderMatchesEstimator(t *testing.T) {
	o := newOptimizer(t, cardest.SM().WithClosure())
	plan, err := o.PlanForOrder([]string{"S", "B", "M", "G"})
	if err != nil {
		t.Fatal(err)
	}
	got := StepSizes(plan)
	want := []float64{0.2, 4e-8, 4e-21}
	if len(got) != 3 {
		t.Fatalf("step sizes = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Abs(want[i]) {
			t.Errorf("step %d = %g, want %g", i, got[i], want[i])
		}
	}
	if order := JoinOrder(plan); strings.Join(order, ",") != "S,B,M,G" {
		t.Errorf("JoinOrder = %v", order)
	}
}

func TestPlanForOrderErrors(t *testing.T) {
	o := newOptimizer(t, cardest.ELS())
	if _, err := o.PlanForOrder(nil); err == nil {
		t.Error("empty order should error")
	}
	if _, err := o.PlanForOrder([]string{"nope"}); err == nil {
		t.Error("unknown table should error")
	}
}

func TestScanCarriesFilters(t *testing.T) {
	o := newOptimizer(t, cardest.ELS())
	plan, err := o.PlanForOrder([]string{"G", "B", "M", "S"})
	if err != nil {
		t.Fatal(err)
	}
	// With closure, every scan should carry its implied local predicate.
	var scans []*Scan
	var walk func(Plan)
	walk = func(p Plan) {
		switch n := p.(type) {
		case *Scan:
			scans = append(scans, n)
		case *Join:
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(plan)
	if len(scans) != 4 {
		t.Fatalf("scans = %d", len(scans))
	}
	for _, s := range scans {
		if len(s.Filter) != 1 {
			t.Errorf("scan %s filter = %v, want the implied < 100 predicate", s.Alias, s.Filter)
		}
		if s.Rows != 100 {
			t.Errorf("scan %s estimated rows = %g, want 100", s.Alias, s.Rows)
		}
	}
}

func TestSMWithoutPTCScansAreUnfiltered(t *testing.T) {
	o := newOptimizer(t, cardest.SM())
	plan, err := o.PlanForOrder([]string{"S", "M", "B", "G"})
	if err != nil {
		t.Fatal(err)
	}
	var filters int
	var walk func(Plan)
	walk = func(p Plan) {
		switch n := p.(type) {
		case *Scan:
			filters += len(n.Filter)
		case *Join:
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(plan)
	if filters != 1 {
		t.Errorf("total filters = %d, want 1 (only s<100, no implied predicates)", filters)
	}
}

func TestDPMatchesExhaustive(t *testing.T) {
	// The DP must find a plan as cheap as brute force over all left-deep
	// orders, for each estimation algorithm.
	for _, cfg := range []cardest.Config{cardest.ELS(), cardest.SM(), cardest.SM().WithClosure(), cardest.SSS().WithClosure()} {
		o := newOptimizer(t, cfg)
		dp, err := o.BestPlan()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := o.exhaustivePlan()
		if err != nil {
			t.Fatal(err)
		}
		if dp.Cost() > ex.Cost()*(1+1e-9) {
			t.Errorf("%s: DP cost %g exceeds exhaustive %g", cfg.Name(), dp.Cost(), ex.Cost())
		}
	}
}

func TestCartesianHandling(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 10, map[string]float64{"x": 10}))
	cat.MustAddTable(catalog.SimpleTable("B", 20, map[string]float64{"y": 20}))
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}}, nil, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(est, PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstRows() != 200 {
		t.Errorf("cartesian rows = %g, want 200", plan.EstRows())
	}
	j, ok := plan.(*Join)
	if !ok || j.Method != NestedLoop {
		t.Errorf("cartesian should use nested loops: %v", plan)
	}
	// With cartesian disabled, planning fails.
	o2, _ := New(est, Options{DisableCartesian: true})
	if _, err := o2.BestPlan(); err == nil {
		t.Error("disconnected query with cartesian disabled should error")
	}
}

func TestSingleTablePlan(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 10, map[string]float64{"x": 10}))
	est, _ := cardest.New(cat, []cardest.TableRef{{Table: "A"}}, nil, cardest.ELS())
	o, _ := New(est, PaperOptions())
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.(*Scan); !ok {
		t.Errorf("single table should plan a scan: %v", plan)
	}
}

func TestNonEqualityJoinUsesNL(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 100, map[string]float64{"x": 100}))
	cat.MustAddTable(catalog.SimpleTable("B", 100, map[string]float64{"y": 100}))
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}},
		[]expr.Predicate{expr.NewJoin(ref("A", "x"), expr.OpLT, ref("B", "y"))}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, _ := New(est, PaperOptions())
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	j := plan.(*Join)
	if j.Method != NestedLoop {
		t.Errorf("non-equality join must use NL, got %s", j.Method)
	}
}

func TestFormatAndStrings(t *testing.T) {
	o := newOptimizer(t, cardest.ELS())
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	out := Format(plan)
	if strings.Count(out, "Scan(") != 4 {
		t.Errorf("Format should show 4 scans:\n%s", out)
	}
	if !strings.Contains(out, "⋈") {
		t.Errorf("Format should show joins:\n%s", out)
	}
	if fmtRows(100) != "100" || fmtRows(0.25) != "0.25" {
		t.Error("fmtRows wrong")
	}
}

func TestTooManyTables(t *testing.T) {
	cat := catalog.New()
	var tabs []cardest.TableRef
	for i := 0; i < 25; i++ {
		name := fmt.Sprintf("T%d", i)
		cat.MustAddTable(catalog.SimpleTable(name, 10, map[string]float64{"x": 10}))
		tabs = append(tabs, cardest.TableRef{Table: name})
	}
	est, err := cardest.New(cat, tabs, nil, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(est, PaperOptions()); err == nil {
		t.Error("25 tables should exceed the DP limit")
	}
}

// Property: over random chain queries, the DP plan costs no more than the
// cheapest left-deep order exhaustive search finds.
func TestDPMatchesExhaustiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(4)
		cat := catalog.New()
		var tabs []cardest.TableRef
		var preds []expr.Predicate
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("T%d", i)
			card := float64(10 + rng.Intn(20000))
			d := float64(1 + rng.Intn(int(card)))
			cat.MustAddTable(catalog.SimpleTable(name, card, map[string]float64{"c": d}))
			tabs = append(tabs, cardest.TableRef{Table: name})
			if i > 0 {
				preds = append(preds, expr.NewJoin(ref(name, "c"), expr.OpEQ, ref(fmt.Sprintf("T%d", i-1), "c")))
			}
		}
		est, err := cardest.New(cat, tabs, preds, cardest.ELS())
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(est, PaperOptions())
		if err != nil {
			t.Fatal(err)
		}
		dp, err := o.BestPlan()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := o.exhaustivePlan()
		if err != nil {
			t.Fatal(err)
		}
		if dp.Cost() > ex.Cost()*(1+1e-9) {
			t.Errorf("trial %d: DP (%g) worse than exhaustive (%g)", trial, dp.Cost(), ex.Cost())
		}
	}
}
