package cardest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

func ref(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }

// example1bCatalog is the statistics of Examples 1b, 2 and 3:
// ‖R1‖=100, ‖R2‖=1000, ‖R3‖=1000, d_x=10, d_y=100, d_z=1000.
func example1bCatalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAddTable(catalog.SimpleTable("R1", 100, map[string]float64{"x": 10}))
	c.MustAddTable(catalog.SimpleTable("R2", 1000, map[string]float64{"y": 100}))
	c.MustAddTable(catalog.SimpleTable("R3", 1000, map[string]float64{"z": 1000}))
	return c
}

func example1bTables() []TableRef {
	return []TableRef{{Table: "R1"}, {Table: "R2"}, {Table: "R3"}}
}

func example1bPreds() []expr.Predicate {
	return []expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
		expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R3", "z")),
	}
}

func mustNew(t *testing.T, cat *catalog.Catalog, tabs []TableRef, preds []expr.Predicate, cfg Config) *Estimator {
	t.Helper()
	e, err := New(cat, tabs, preds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRuleAndConfigNames(t *testing.T) {
	if RuleM.String() != "M" || RuleSS.String() != "SS" || RuleLS.String() != "LS" || RuleRepresentative.String() != "REP" {
		t.Error("rule names wrong")
	}
	if Rule(9).String() != "?" || Rule(9).Valid() {
		t.Error("invalid rule handling wrong")
	}
	if RepSmallest.String() != "rep-smallest" || RepLargest.String() != "rep-largest" || RepChoice(9).String() != "?" {
		t.Error("rep choice names wrong")
	}
	if ELS().Name() != "ELS" || SM().Name() != "SM" || SSS().Name() != "SSS" {
		t.Error("config names wrong")
	}
	if (Config{Rule: RuleM, UseEffectiveStats: true}).Name() != "EM" {
		t.Error("effective-M name wrong")
	}
	if err := (Config{Rule: Rule(42)}).Validate(); err == nil {
		t.Error("invalid rule should fail validation")
	}
	if !SM().WithClosure().ApplyClosure {
		t.Error("WithClosure should enable closure")
	}
}

func TestNewValidation(t *testing.T) {
	cat := example1bCatalog()
	if _, err := New(nil, example1bTables(), nil, ELS()); err == nil {
		t.Error("nil catalog should error")
	}
	if _, err := New(cat, nil, nil, ELS()); err == nil {
		t.Error("no tables should error")
	}
	if _, err := New(cat, []TableRef{{Table: "R1"}, {Table: "R1"}}, nil, ELS()); err == nil {
		t.Error("duplicate alias should error")
	}
	if _, err := New(cat, []TableRef{{Table: "R1", Alias: "a"}, {Table: "R2", Alias: "A"}}, nil, ELS()); err == nil {
		t.Error("aliases differing only in case should error as duplicates")
	}
	if _, err := New(cat, []TableRef{{Table: "nope"}}, nil, ELS()); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := New(cat, example1bTables(), []expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("ZZ", "q")),
	}, ELS()); err == nil {
		t.Error("predicate on unknown table should error")
	}
	if _, err := New(cat, example1bTables(), []expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "nope")),
	}, ELS()); err == nil {
		t.Error("predicate on unknown column should error")
	}
	if _, err := New(cat, example1bTables(), nil, Config{Rule: Rule(42)}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestAliases(t *testing.T) {
	cat := example1bCatalog()
	e := mustNew(t, cat, []TableRef{{Alias: "a", Table: "R1"}, {Alias: "b", Table: "R1"}},
		[]expr.Predicate{expr.NewJoin(ref("a", "x"), expr.OpEQ, ref("b", "x"))}, ELS())
	sz, err := e.FinalSize([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	// Self-join: 100×100/max(10,10) = 1000.
	if sz != 1000 {
		t.Errorf("self-join size = %g, want 1000", sz)
	}
	if (TableRef{Table: "T"}).Name() != "T" || (TableRef{Alias: "a", Table: "T"}).Name() != "a" {
		t.Error("TableRef.Name wrong")
	}
}

func TestJoinSelectivitiesExample1b(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	cases := []struct {
		p    expr.Predicate
		want float64
	}{
		{expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")), 0.01},
		{expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R3", "z")), 0.001},
		{expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R3", "z")), 0.001},
	}
	for _, c := range cases {
		got, err := e.joinSelectivity(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("S(%s) = %g, want %g", c.p, got, c.want)
		}
	}
	// Non-equality join predicate: 1/3 heuristic.
	s, err := e.joinSelectivity(expr.NewJoin(ref("R1", "x"), expr.OpLT, ref("R2", "y")))
	if err != nil || s != 1.0/3.0 {
		t.Errorf("non-eq join selectivity = %g, err %v", s, err)
	}
	// Local predicate rejected.
	if _, err := e.joinSelectivity(expr.NewConst(ref("R1", "x"), expr.OpEQ, storage.Int64(1))); err == nil {
		t.Error("const predicate should be rejected")
	}
}

func TestExample1bTwoWayJoin(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	// ‖R2 ⋈ R3‖ = 1000×1000×0.001 = 1000.
	sz, err := e.FinalSize([]string{"R2", "R3"})
	if err != nil {
		t.Fatal(err)
	}
	if sz != 1000 {
		t.Errorf("‖R2⋈R3‖ = %g, want 1000", sz)
	}
}

func TestExample1bEquation3(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	// Equation 3: 100×1000×1000/(100×1000) = 1000.
	sz, err := e.OracleSize([]string{"R1", "R2", "R3"})
	if err != nil {
		t.Fatal(err)
	}
	if sz != 1000 {
		t.Errorf("Equation 3 oracle = %g, want 1000", sz)
	}
}

func TestExample2RuleM(t *testing.T) {
	// Rule M with closure: join order R2, R3, then R1 estimates 1 (paper:
	// "correct answer is 1000").
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), SM().WithClosure())
	sz, err := e.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sz-1) > 1e-9 {
		t.Errorf("Rule M estimate = %g, want 1 (Example 2)", sz)
	}
}

func TestExample3RuleSS(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), SSS().WithClosure())
	sz, err := e.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sz-100) > 1e-9 {
		t.Errorf("Rule SS estimate = %g, want 100 (Example 3)", sz)
	}
}

func TestExample3RuleLS(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	sz, err := e.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		t.Fatal(err)
	}
	if sz != 1000 {
		t.Errorf("Rule LS estimate = %g, want 1000 (Example 3, correct)", sz)
	}
	// The step detail should show the group with both J1 and J3, choosing 0.01.
	steps, err := e.EstimateOrder([]string{"R2", "R3", "R1"})
	if err != nil {
		t.Fatal(err)
	}
	last := steps[len(steps)-1]
	if len(last.Groups) != 1 {
		t.Fatalf("final step groups = %d, want 1 (single class)", len(last.Groups))
	}
	g := last.Groups[0]
	if len(g.Predicates) != 2 {
		t.Errorf("eligible predicates = %d, want 2 (J1 and J3)", len(g.Predicates))
	}
	if g.Chosen != 0.01 {
		t.Errorf("LS chose %g, want 0.01 (the largest)", g.Chosen)
	}
}

func TestRepresentativeRuleSection33(t *testing.T) {
	// "If the representative selectivity is 0.01, the estimate ... will be
	// 10000, which is too high. If ... 0.001, the estimate ... will be 100,
	// which is too low."
	cfgHi := Config{Rule: RuleRepresentative, ApplyClosure: true, Rep: RepLargest, Sel: ELS().Sel}
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), cfgHi)
	sz, err := e.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sz-10000) > 1e-6 {
		t.Errorf("rep=0.01 estimate = %g, want 10000", sz)
	}
	cfgLo := cfgHi
	cfgLo.Rep = RepSmallest
	e = mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), cfgLo)
	sz, err = e.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sz-100) > 1e-6 {
		t.Errorf("rep=0.001 estimate = %g, want 100", sz)
	}
}

func TestCartesianStep(t *testing.T) {
	cat := example1bCatalog()
	// No predicates at all: joining is a cartesian product.
	e := mustNew(t, cat, example1bTables(), nil, ELS())
	step := joinStep(t, e, 100, []string{"R1"}, "R2")
	if !step.Cartesian || step.Size != 100*1000 {
		t.Errorf("cartesian step = %+v", step)
	}
}

func TestJoinStepErrors(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	if _, err := e.JoinStep(1, 1<<0, 0); err == nil {
		t.Error("rejoining a table should error")
	}
	if _, err := e.EstimateOrder([]string{"R1", "nope"}); err == nil {
		t.Error("unknown table in an order should error")
	}
	if _, err := e.EstimateOrder(nil); err == nil {
		t.Error("empty order should error")
	}
	if _, err := e.FinalSize([]string{"nope"}); err == nil {
		t.Error("unknown single table should error")
	}
}

func TestImpliedAndClasses(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	if len(e.Implied()) != 1 {
		t.Errorf("implied = %v, want J3 only", e.Implied())
	}
	if len(e.Predicates()) != 3 {
		t.Errorf("closed predicates = %d, want 3", len(e.Predicates()))
	}
	if e.Classes().NumClasses() != 1 {
		t.Errorf("classes = %d, want 1", e.Classes().NumClasses())
	}
	if e.Config().Rule != RuleLS {
		t.Error("Config accessor wrong")
	}
	if len(e.Tables()) != 3 {
		t.Error("Tables accessor wrong")
	}
	// Without closure, no implied predicates.
	e2 := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), SM())
	if len(e2.Implied()) != 0 || len(e2.Predicates()) != 2 {
		t.Error("non-closure estimator should keep the given predicates")
	}
}

func TestAccessors(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	eff, err := e.Effective("R1")
	if err != nil || eff.Card != 100 {
		t.Errorf("Effective(R1) = %+v, err %v", eff, err)
	}
	if _, err := e.Effective("zz"); err == nil {
		t.Error("unknown alias should error")
	}
	base, err := e.baseStats("r2")
	if err != nil || base.Card != 1000 {
		t.Errorf("BaseStats = %+v, err %v", base, err)
	}
	if _, err := e.baseStats("zz"); err == nil {
		t.Error("unknown alias should error")
	}
	if sz, _ := e.BaseSize("R3"); sz != 1000 {
		t.Errorf("BaseSize(R3) = %g", sz)
	}
	if _, err := e.BaseSize("zz"); err == nil {
		t.Error("unknown alias should error")
	}
}

func TestOracleErrors(t *testing.T) {
	e := mustNew(t, example1bCatalog(), example1bTables(), example1bPreds(), ELS())
	if _, err := e.OracleSize(nil); err == nil {
		t.Error("empty set should error")
	}
	if _, err := e.OracleSize([]string{"R1", "r1"}); err == nil {
		t.Error("duplicate alias should error")
	}
	if _, err := e.OracleSize([]string{"R1", "zz"}); err == nil {
		t.Error("unknown alias should error")
	}
	e2 := mustNew(t, example1bCatalog(), example1bTables(), []expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpLT, ref("R2", "y")),
	}, ELS())
	if _, err := e2.OracleSize([]string{"R1", "R2"}); err == nil {
		t.Error("non-equality join should make the oracle error")
	}
}

// joinSelectivity is a join predicate's selectivity, its columns resolved
// by name: Equation 2 for an equality, 1/3 for any other comparison.
func (e *Estimator) joinSelectivity(p expr.Predicate) (float64, error) {
	if p.Kind() != expr.KindJoin {
		return 0, fmt.Errorf("cardest: %s is not a join predicate", p)
	}
	if p.Op != expr.OpEQ {
		return 1.0 / 3.0, nil
	}
	l, err := e.columnOf(p.Left)
	if err != nil {
		return 0, err
	}
	r, err := e.columnOf(p.Right)
	if err != nil {
		return 0, err
	}
	return e.equation2(&l, &r), nil
}

// columnOf resolves a column of the query by name, effective column
// cardinality included.
func (e *Estimator) columnOf(ref expr.ColumnRef) (column, error) {
	c, err := e.resolve(ref)
	if err == nil {
		c.card, err = e.eff[c.table].ColumnCard(ref.Column)
	}
	return c, err
}

// baseStats is the raw statistics of the aliased table.
func (e *Estimator) baseStats(alias string) (*catalog.TableStats, error) {
	if t, ok := e.TableNumber(alias); ok {
		return e.base[t], nil
	}
	return nil, fmt.Errorf("cardest: unknown table alias %q", alias)
}
