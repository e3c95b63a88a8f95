package cardest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

// equation3 is the paper's Equation 3, computed here from the statistics a
// test declares rather than by the estimator: the product of the table
// cardinalities, divided in each equivalence class by every column
// cardinality but the smallest. classes[i] holds class i's column
// cardinalities, one per table.
func equation3(cards []float64, classes ...[]float64) float64 {
	size := 1.0
	for _, c := range cards {
		size *= c
	}
	for _, class := range classes {
		ds := slices.Clone(class)
		slices.Sort(ds)
		for _, d := range ds[1:] {
			size /= d
		}
	}
	return size
}

// randomSingleClassQuery builds n tables whose join columns form one
// equivalence class via a random spanning set of equality predicates, and
// returns the Equation 3 size of joining them all.
func randomSingleClassQuery(rng *rand.Rand, n int) (*catalog.Catalog, []TableRef, []expr.Predicate, float64) {
	cat := catalog.New()
	tabs := make([]TableRef, n)
	cards, ds := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("T%d", i)
		cards[i] = float64(1 + rng.Intn(100000))
		ds[i] = float64(1 + rng.Intn(int(cards[i])))
		cat.MustAddTable(catalog.SimpleTable(name, cards[i], map[string]float64{"c": ds[i]}))
		tabs[i] = TableRef{Table: name}
	}
	var preds []expr.Predicate
	// Random spanning tree plus a few extra edges.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		preds = append(preds, expr.NewJoin(ref(fmt.Sprintf("T%d", i), "c"), expr.OpEQ, ref(fmt.Sprintf("T%d", j), "c")))
	}
	extra := rng.Intn(n)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			preds = append(preds, expr.NewJoin(ref(fmt.Sprintf("T%d", i), "c"), expr.OpEQ, ref(fmt.Sprintf("T%d", j), "c")))
		}
	}
	return cat, tabs, preds, equation3(cards, ds)
}

func shuffledOrder(rng *rand.Rand, n int) []string {
	order := make([]string, n)
	for i, p := range rng.Perm(n) {
		order[i] = fmt.Sprintf("T%d", p)
	}
	return order
}

// The paper's correctness theorem (Section 7): Rule LS computes, for any
// join order over a single equivalence class, exactly the Equation 3 size.
func TestLSAgreesWithEquation3Property(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(5)
		cat, tabs, preds, want := randomSingleClassQuery(rng, n)
		e, err := New(cat, tabs, preds, ELS())
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			order := shuffledOrder(rng, n)
			got, err := e.FinalSize(order)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(got, want) {
				t.Fatalf("trial %d: LS along %v = %g, Equation 3 = %g", trial, order, got, want)
			}
		}
	}
}

// Rule M never exceeds LS, and Rule SS never exceeds LS (they multiply
// more, or pick smaller, selectivities): LS is the largest of the three,
// and all are upper-bounded by the cartesian product.
func TestRuleOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(4)
		cat, tabs, preds, _ := randomSingleClassQuery(rng, n)
		order := shuffledOrder(rng, n)
		var final [3]float64
		for i, cfg := range []Config{SM().WithClosure(), SSS().WithClosure(), ELS()} {
			e, err := New(cat, tabs, preds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sz, err := e.FinalSize(order)
			if err != nil {
				t.Fatal(err)
			}
			final[i] = sz
		}
		m, ss, ls := final[0], final[1], final[2]
		if m > ls*(1+1e-9) {
			t.Fatalf("trial %d: M (%g) exceeded LS (%g)", trial, m, ls)
		}
		if ss > ls*(1+1e-9) {
			t.Fatalf("trial %d: SS (%g) exceeded LS (%g)", trial, ss, ls)
		}
		if m > ss*(1+1e-9) {
			t.Fatalf("trial %d: M (%g) exceeded SS (%g)", trial, m, ss)
		}
		cart := 1.0
		for i := 0; i < n; i++ {
			cart *= cat.Table(fmt.Sprintf("T%d", i)).Card
		}
		if ls > cart*(1+1e-9) {
			t.Fatalf("trial %d: LS (%g) exceeded cartesian (%g)", trial, ls, cart)
		}
	}
}

// With several independent equivalence classes, LS still matches Equation
// 3: classes contribute independent factors.
func TestLSMultiClassProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(3)
		cat := catalog.New()
		tabs := make([]TableRef, n)
		var preds []expr.Predicate
		cards, as, bs := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("T%d", i)
			cards[i] = float64(10 + rng.Intn(10000))
			as[i] = float64(1 + rng.Intn(int(cards[i])))
			bs[i] = float64(1 + rng.Intn(int(cards[i])))
			cat.MustAddTable(catalog.SimpleTable(name, cards[i], map[string]float64{"a": as[i], "b": bs[i]}))
			tabs[i] = TableRef{Table: name}
		}
		// Class A chains column a across all tables; class B chains column b
		// across a random subset of size >= 2.
		for i := 1; i < n; i++ {
			preds = append(preds, expr.NewJoin(ref(fmt.Sprintf("T%d", i), "a"), expr.OpEQ, ref(fmt.Sprintf("T%d", i-1), "a")))
		}
		subset := rng.Perm(n)[:2+rng.Intn(n-1)]
		classB := make([]float64, len(subset))
		for k, i := range subset {
			classB[k] = bs[i]
			if k > 0 {
				preds = append(preds, expr.NewJoin(
					ref(fmt.Sprintf("T%d", i), "b"), expr.OpEQ, ref(fmt.Sprintf("T%d", subset[k-1]), "b")))
			}
		}
		e, err := New(cat, tabs, preds, ELS())
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.FinalSize(shuffledOrder(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		if want := equation3(cards, as, classB); !approxEq(got, want) {
			t.Fatalf("trial %d: LS = %g, Equation 3 = %g", trial, got, want)
		}
	}
}

// LS with local predicates: estimates remain order-independent (the
// stronger property implied by agreement with Equation 3 over effective
// statistics).
func TestLSOrderIndependentWithLocalsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(4)
		cat, tabs, preds, _ := randomSingleClassQuery(rng, n)
		// Random local range predicate on a random table's join column.
		victim := fmt.Sprintf("T%d", rng.Intn(n))
		d := cat.Table(victim).Column("c").Distinct
		cut := int64(1 + rng.Intn(int(d)))
		preds = append(preds, expr.NewConst(ref(victim, "c"), expr.OpLT, storage.Int64(cut)))
		e, err := New(cat, tabs, preds, ELS())
		if err != nil {
			t.Fatal(err)
		}
		ref := -1.0
		for rep := 0; rep < 4; rep++ {
			got, err := e.FinalSize(shuffledOrder(rng, n))
			if err != nil {
				t.Fatal(err)
			}
			if ref < 0 {
				ref = got
			} else if !approxEq(got, ref) {
				t.Fatalf("trial %d: order-dependent LS estimate: %g vs %g", trial, got, ref)
			}
		}
	}
}

// Estimates are always non-negative and finite for all rules.
func TestEstimateSanityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	cfgs := []Config{SM(), SM().WithClosure(), SSS().WithClosure(), ELS(),
		{Rule: RuleRepresentative, ApplyClosure: true, Rep: RepLargest},
		{Rule: RuleRepresentative, ApplyClosure: true, UseEffectiveStats: true, Rep: RepSmallest}}
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		cat, tabs, preds, _ := randomSingleClassQuery(rng, n)
		order := shuffledOrder(rng, n)
		for _, cfg := range cfgs {
			e, err := New(cat, tabs, preds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sz, err := e.FinalSize(order)
			if err != nil {
				t.Fatal(err)
			}
			if sz < 0 || math.IsNaN(sz) || math.IsInf(sz, 0) {
				t.Fatalf("trial %d cfg %s: estimate %g", trial, cfg.Name(), sz)
			}
		}
	}
}
