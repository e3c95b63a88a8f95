package optimizer

import (
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
)

func twoTableEstimator(t *testing.T) *cardest.Estimator {
	t.Helper()
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 1000, map[string]float64{"k": 100}))
	cat.MustAddTable(catalog.SimpleTable("B", 5000, map[string]float64{"k": 100}))
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}},
		[]expr.Predicate{expr.NewJoin(ref("A", "k"), expr.OpEQ, ref("B", "k"))}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestHashJoinMethodSelectable(t *testing.T) {
	est := twoTableEstimator(t)
	o, err := New(est, Options{Methods: []JoinMethod{HashJoin}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.(*Join).Method != HashJoin {
		t.Errorf("method = %s, want HASH", plan.(*Join).Method)
	}
	// Hash requires equality; a pure cartesian query cannot use it.
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 10, map[string]float64{"k": 10}))
	cat.MustAddTable(catalog.SimpleTable("B", 10, map[string]float64{"k": 10}))
	est2, _ := cardest.New(cat, []cardest.TableRef{{Table: "A"}, {Table: "B"}}, nil, cardest.ELS())
	o2, _ := New(est2, Options{Methods: []JoinMethod{HashJoin}})
	if _, err := o2.BestPlan(); err == nil {
		t.Error("hash-only cartesian should fail to plan")
	}
}

func TestUnknownMethodIgnored(t *testing.T) {
	est := twoTableEstimator(t)
	o, err := New(est, Options{Methods: []JoinMethod{JoinMethod(42), SortMerge}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.(*Join).Method != SortMerge {
		t.Errorf("unknown method should be skipped, got %s", plan.(*Join).Method)
	}
	o2, _ := New(est, Options{Methods: []JoinMethod{JoinMethod(42)}})
	if _, err := o2.BestPlan(); err == nil {
		t.Error("only-unknown methods should fail to plan")
	}
}

func TestJoinWidthAndTablesCache(t *testing.T) {
	est := twoTableEstimator(t)
	o, _ := New(est, PaperOptions())
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	j := plan.(*Join)
	if j.Width() != j.Left.Width()+j.Right.Width() {
		t.Error("join width should be the sum of inputs")
	}
	// Tables() is cached; repeated calls agree.
	first := j.Tables()
	second := j.Tables()
	if len(first) != 2 || len(second) != 2 || first[0] != second[0] {
		t.Errorf("Tables cache broken: %v vs %v", first, second)
	}
}

func TestExhaustiveSingleTable(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 10, map[string]float64{"k": 10}))
	est, _ := cardest.New(cat, []cardest.TableRef{{Table: "A"}}, nil, cardest.ELS())
	o, _ := New(est, PaperOptions())
	ex, err := o.exhaustivePlan()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.(*Scan); !ok {
		t.Errorf("exhaustive single table should be a scan: %v", ex)
	}
}

func TestExhaustiveLimits(t *testing.T) {
	cat := catalog.New()
	var tabs []cardest.TableRef
	for i := 0; i < 9; i++ {
		name := string(rune('A' + i))
		cat.MustAddTable(catalog.SimpleTable(name, 10, map[string]float64{"k": 10}))
		tabs = append(tabs, cardest.TableRef{Table: name})
	}
	est, _ := cardest.New(cat, tabs, nil, cardest.ELS())
	o, _ := New(est, PaperOptions())
	if _, err := o.exhaustivePlan(); err == nil {
		t.Error("9 tables should exceed the exhaustive limit")
	}
}
