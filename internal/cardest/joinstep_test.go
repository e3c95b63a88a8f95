package cardest

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

// stepTestQuery builds a 5-table query with a 3-column equivalence class,
// a non-equality join predicate, and local predicates — every selectivity
// path JoinStep has.
func stepTestQuery() (*catalog.Catalog, []TableRef, []expr.Predicate) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("A", 1000, map[string]float64{"x": 100, "v": 50}))
	cat.MustAddTable(catalog.SimpleTable("B", 2000, map[string]float64{"x": 400, "w": 80}))
	cat.MustAddTable(catalog.SimpleTable("C", 5000, map[string]float64{"x": 900}))
	cat.MustAddTable(catalog.SimpleTable("D", 300, map[string]float64{"y": 300}))
	cat.MustAddTable(catalog.SimpleTable("E", 800, map[string]float64{"y": 200, "z": 10}))
	tabs := []TableRef{{Table: "A"}, {Table: "B"}, {Table: "C"}, {Table: "D"}, {Table: "E"}}
	ref := func(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }
	preds := []expr.Predicate{
		expr.NewJoin(ref("A", "x"), expr.OpEQ, ref("B", "x")),
		expr.NewJoin(ref("B", "x"), expr.OpEQ, ref("C", "x")),
		expr.NewJoin(ref("D", "y"), expr.OpEQ, ref("E", "y")),
		expr.NewJoin(ref("A", "v"), expr.OpLT, ref("E", "z")),
		expr.NewConst(ref("A", "v"), expr.OpLT, storage.Int64(25)),
		expr.NewConst(ref("E", "z"), expr.OpEQ, storage.Int64(3)),
	}
	return cat, tabs, preds
}

func stepConfigs() map[string]Config {
	return map[string]Config{
		"ELS": ELS(),
		"SM":  SM(),
		"SSS": SSS(),
		"REP": {Rule: RuleRepresentative, Rep: RepLargest, UseEffectiveStats: true, ApplyClosure: true},
	}
}

// sameStep asserts two StepResults are bit-identical (floats compared with
// ==, no tolerance).
func sameStep(t *testing.T, label string, got, want StepResult) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: step differs:\n got  %+v\n want %+v", label, got, want)
	}
}

// joinStep is JoinStep with the joined set and the next table named by alias.
func joinStep(t *testing.T, e *Estimator, currentSize float64, joined []string, next string) StepResult {
	t.Helper()
	var mask uint64
	for _, alias := range joined {
		i, ok := e.TableNumber(alias)
		if !ok {
			t.Fatalf("unknown alias %q", alias)
		}
		mask |= 1 << i
	}
	n, ok := e.TableNumber(next)
	if !ok {
		t.Fatalf("unknown alias %q", next)
	}
	res, err := e.JoinStep(currentSize, mask, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceStep computes one incremental step lazily, as an independent
// reference for JoinStep: scan the predicate set for eligible predicates,
// compute each one's selectivity and class id on the spot, group, sort,
// choose, multiply. It reads the estimator's accessors, never the
// precomputed step-5 slice.
func referenceStep(e *Estimator, currentSize float64, joined []string, next string) (StepResult, error) {
	eff, err := e.Effective(next)
	if err != nil {
		return StepResult{}, err
	}
	res := StepResult{Table: next, TableCard: eff.Card, Selectivity: 1}
	byClass := make(map[string]*GroupChoice)
	var ids []string
	for i, p := range e.Predicates() {
		if p.Kind() != expr.KindJoin || !p.References(next) {
			continue
		}
		linked := false
		for _, j := range joined {
			linked = linked || p.References(j)
		}
		if !linked {
			continue
		}
		res.Eligible = append(res.Eligible, p)
		res.Positions = append(res.Positions, i)
		id := p.CanonicalKey()
		if p.Op == expr.OpEQ {
			id = e.Classes().ClassID(p.Left)
		}
		g, ok := byClass[id]
		if !ok {
			g = &GroupChoice{ClassID: id}
			byClass[id] = g
			ids = append(ids, id)
		}
		s, err := e.joinSelectivity(p)
		if err != nil {
			return StepResult{}, err
		}
		g.Predicates = append(g.Predicates, p)
		g.Selectivities = append(g.Selectivities, s)
	}
	res.Cartesian = len(res.Eligible) == 0
	sort.Strings(ids)
	for _, id := range ids {
		g := *byClass[id]
		g.Chosen = referenceChoose(e, g)
		res.Groups = append(res.Groups, g)
		res.Selectivity *= g.Chosen
	}
	res.Size = currentSize * res.TableCard * res.Selectivity
	return res, nil
}

// referenceChoose applies the configured rule to one group's selectivities,
// deriving a class's representative selectivity on the spot from its
// members' effective column cardinalities.
func referenceChoose(e *Estimator, g GroupChoice) float64 {
	smallest, largest, product := math.Inf(1), math.Inf(-1), 1.0
	for _, s := range g.Selectivities {
		smallest, largest, product = math.Min(smallest, s), math.Max(largest, s), product*s
	}
	switch e.cfg.Rule {
	case RuleM:
		return product
	case RuleSS:
		return smallest
	case RuleRepresentative:
		if p := g.Predicates[0]; p.Op == expr.OpEQ {
			var ds []float64
			for _, ref := range e.Classes().Members(p.Left) {
				if c, err := e.columnOf(ref); err == nil {
					ds = append(ds, c.card)
				}
			}
			sort.Float64s(ds)
			d := ds[len(ds)-1]
			if e.cfg.Rep == RepLargest {
				d = ds[1]
			}
			if d > 0 {
				return 1 / d
			}
		}
	}
	return largest
}

// JoinStep over the precomputed step-5 slice must return bit-identical
// StepResults — sizes, selectivities, groups, Eligible, Cartesian — to the
// lazy reference, for seeded random join orders and prefixes under every
// rule, and StepSize must give the same Size bit for bit, report the step
// linked exactly when it is not cartesian, and report an equality exactly
// when an eligible predicate is one.
func TestJoinStepMatchesReference(t *testing.T) {
	cat, tabs, preds := stepTestQuery()
	for name, cfg := range stepConfigs() {
		t.Run(name, func(t *testing.T) {
			est, err := New(cat, tabs, preds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			aliases := []string{"A", "B", "C", "D", "E"}
			rng := rand.New(rand.NewSource(1994))
			cartesian, linked := 0, 0
			for trial := 0; trial < 300; trial++ {
				perm := rng.Perm(len(aliases))
				k := 1 + rng.Intn(len(aliases)-1) // prefix length 1..n-1
				joined := make([]string, k)
				var mask uint64
				for i := 0; i < k; i++ {
					joined[i] = aliases[perm[i]]
					mask |= 1 << perm[i]
				}
				next := aliases[perm[k]]
				size := float64(1 + rng.Intn(1_000_000))
				want, err := referenceStep(est, size, joined, next)
				if err != nil {
					t.Fatal(err)
				}
				got := joinStep(t, est, size, joined, next)
				sameStep(t, name, got, want)
				equality := slices.ContainsFunc(got.Eligible, expr.Predicate.IsEquality)
				kSize, kLinked, kEquality := est.StepSize(size, mask, perm[k])
				if math.Float64bits(kSize) != math.Float64bits(got.Size) || kLinked == got.Cartesian || kEquality != equality {
					t.Fatalf("%s: StepSize(%v, %b, %d) = %v, %v, %v; JoinStep says size %v, cartesian %v, equality %v",
						name, size, mask, perm[k], kSize, kLinked, kEquality, got.Size, got.Cartesian, equality)
				}
				if got.Cartesian {
					cartesian++
				} else {
					linked++
				}
			}
			if cartesian == 0 || linked == 0 {
				t.Fatalf("draws cover %d cartesian and %d linked steps; want both", cartesian, linked)
			}
			// Full-order estimation must agree too.
			order := []string{"D", "A", "E", "C", "B"}
			gotSteps, err := est.EstimateOrder(order)
			if err != nil {
				t.Fatal(err)
			}
			size, err := est.BaseSize(order[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, next := range order[1:] {
				want, err := referenceStep(est, size, order[:i+1], next)
				if err != nil {
					t.Fatal(err)
				}
				sameStep(t, name+" EstimateOrder", gotSteps[i], want)
				size = want.Size
			}
		})
	}
}

// Joined-set order must not affect the estimate: eligibility depends on
// set membership only.
func TestJoinStepJoinedOrderInsensitive(t *testing.T) {
	cat, tabs, preds := stepTestQuery()
	est, err := New(cat, tabs, preds, ELS())
	if err != nil {
		t.Fatal(err)
	}
	a := joinStep(t, est, 5000, []string{"A", "B", "D"}, "C")
	b := joinStep(t, est, 5000, []string{"D", "B", "A"}, "C")
	sameStep(t, "order", b, a)
}

// A returned result's slices must not alias estimator state: mutating them
// cannot change what the next call returns.
func TestJoinStepResultIsolated(t *testing.T) {
	cat, tabs, preds := stepTestQuery()
	est, err := New(cat, tabs, preds, ELS())
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceStep(est, 1000, []string{"A"}, "B")
	if err != nil {
		t.Fatal(err)
	}
	first := joinStep(t, est, 1000, []string{"A"}, "B")
	if len(first.Groups) == 0 || len(first.Eligible) == 0 {
		t.Fatal("expected grouped predicates for A⋈B")
	}
	first.Groups[0].Chosen = -1
	first.Groups[0].Selectivities[0] = -1
	first.Groups[0].Predicates[0] = expr.Predicate{}
	first.Eligible[0] = expr.Predicate{}
	first.Positions[0] = -1
	second := joinStep(t, est, 1000, []string{"A"}, "B")
	sameStep(t, "after mutation", second, want)
}

// The estimator is read-only after construction, so concurrent JoinStep
// calls must be race-free and all return the serial answer.
func TestJoinStepConcurrent(t *testing.T) {
	cat, tabs, preds := stepTestQuery()
	est, err := New(cat, tabs, preds, ELS())
	if err != nil {
		t.Fatal(err)
	}
	want := joinStep(t, est, 777, []string{"A", "C"}, "B")
	var wg sync.WaitGroup
	results := make([]StepResult, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := est.JoinStep(777, 1<<0|1<<2, 1) // {A, C} ⋈ B
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := range results {
		sameStep(t, "concurrent", results[i], want)
	}
}

// Eligibility (Section 2): the join predicates linking next to any joined
// table, matched case-insensitively; no link is a cartesian step.
func TestJoinStepEligibility(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("R1", 100, map[string]float64{"x": 10}))
	cat.MustAddTable(catalog.SimpleTable("R2", 1000, map[string]float64{"y": 100}))
	cat.MustAddTable(catalog.SimpleTable("R3", 1000, map[string]float64{"z": 1000}))
	cat.MustAddTable(catalog.SimpleTable("Q", 50, map[string]float64{"q": 50}))
	ref := func(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }
	est, err := New(cat, []TableRef{{Table: "R1"}, {Table: "R2"}, {Table: "R3"}, {Table: "Q"}},
		[]expr.Predicate{
			expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
			expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R3", "z")),
		}, ELS())
	if err != nil {
		t.Fatal(err)
	}
	// Joining R1 into {R2, R3}: eligible are x=y and the implied x=z.
	step := joinStep(t, est, 1000, []string{"R2", "R3"}, "R1")
	if len(step.Eligible) != 2 || step.Cartesian {
		t.Fatalf("eligible = %v, want 2", step.Eligible)
	}
	// Joining R1 into {R3} only: just x=z, whatever the spelling.
	step = joinStep(t, est, 1000, []string{"r3"}, "r1")
	if len(step.Eligible) != 1 || !step.Eligible[0].References("R3") || step.Cartesian {
		t.Fatalf("eligible = %v", step.Eligible)
	}
	// No eligible predicates → cartesian.
	step = joinStep(t, est, 1000, []string{"Q"}, "R1")
	if len(step.Eligible) != 0 || !step.Cartesian || step.Selectivity != 1 {
		t.Errorf("step vs unrelated table = %+v", step)
	}
}

// Step 5 runs in the constructor, so a join predicate whose selectivity
// cannot be computed fails construction. Reference validation rejects every
// such predicate before step 5 sees it, so the case is staged by removing a
// validated column's effective cardinality from a built estimator.
func TestStepFiveFailureIsAConstructionError(t *testing.T) {
	cat, tabs, preds := stepTestQuery()
	est, err := New(cat, tabs, preds, ELS())
	if err != nil {
		t.Fatal(err)
	}
	delete(est.eff[2].ColCard, "x") // table C
	err = est.computeJoinSelectivities()
	if err == nil || !strings.Contains(err.Error(), `has no column "x"`) {
		t.Fatalf("err = %v, want the missing column named", err)
	}
}
