package optimizer

import (
	"fmt"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
)

// chainQuery builds an n-table chain query with varied cardinalities so
// the DP search has real choices to make at every level.
func chainQuery(t *testing.T, n int) (*catalog.Catalog, []cardest.TableRef, []expr.Predicate) {
	t.Helper()
	cat := catalog.New()
	tabs := make([]cardest.TableRef, n)
	var preds []expr.Predicate
	card := 100.0
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("C%d", i)
		cat.MustAddTable(catalog.SimpleTable(name, card, map[string]float64{"k": card / 2, "j": card / 4}))
		tabs[i] = cardest.TableRef{Table: name}
		card *= 3
		if i > 0 {
			prev := fmt.Sprintf("C%d", i-1)
			preds = append(preds, expr.NewJoin(ref(prev, "j"), expr.OpEQ, ref(name, "k")))
		}
	}
	return cat, tabs, preds
}

// The parallel DP search must return exactly the serial search's plan —
// same join order, same methods, same cost — at every worker count. This
// is what lets the rest of the pipeline treat BestPlan as deterministic
// regardless of GOMAXPROCS.
func TestBestPlanParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{2, 4, 7, 9} {
		cat, tabs, preds := chainQuery(t, n)
		est, err := cardest.New(cat, tabs, preds, cardest.ELS())
		if err != nil {
			t.Fatal(err)
		}
		serialOpt, err := New(est, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialOpt.BestPlan()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			opt, err := New(est, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := opt.BestPlan()
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if got.String() != want.String() || got.Cost() != want.Cost() {
				t.Errorf("n=%d workers=%d:\n got  %s (cost %g)\n want %s (cost %g)",
					n, workers, got, got.Cost(), want, want.Cost())
			}
		}
	}
}

// Star queries have disconnected satellite pairs: the connected-first /
// cartesian-fallback decision must also be worker-count invariant.
func TestBestPlanParallelStarQuery(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("F", 100000, map[string]float64{"a": 500, "b": 400, "c": 300}))
	cat.MustAddTable(catalog.SimpleTable("D1", 500, map[string]float64{"a": 500}))
	cat.MustAddTable(catalog.SimpleTable("D2", 400, map[string]float64{"b": 400}))
	cat.MustAddTable(catalog.SimpleTable("D3", 300, map[string]float64{"c": 300}))
	tabs := []cardest.TableRef{{Table: "F"}, {Table: "D1"}, {Table: "D2"}, {Table: "D3"}}
	preds := []expr.Predicate{
		expr.NewJoin(ref("F", "a"), expr.OpEQ, ref("D1", "a")),
		expr.NewJoin(ref("F", "b"), expr.OpEQ, ref("D2", "b")),
		expr.NewJoin(ref("F", "c"), expr.OpEQ, ref("D3", "c")),
	}
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	var want Plan
	for _, workers := range []int{1, 2, 8} {
		opt, err := New(est, Options{Workers: workers, Methods: []JoinMethod{NestedLoop, SortMerge, HashJoin}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := opt.BestPlan()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if got.String() != want.String() || got.Cost() != want.Cost() {
			t.Errorf("workers=%d: plan differs from serial:\n got  %s\n want %s", workers, got, want)
		}
	}
}

// The parallel DP search reads the estimator's equivalence classes from
// several goroutines at once, so class lookups must not write. The eight
// tables here join on one column in an order (pairs, then pairs of pairs)
// that builds a union-find tree two levels deep — the shape on which a
// path-compressing find wrote its parent map under concurrent readers and
// the runtime killed the process. Rule M without predicate transitive
// closure is the configuration that never walks the classes while the
// estimator is built, and each round plans on a fresh estimator, so every
// search starts on an untouched tree; run under -race.
func TestBestPlanParallelSharesEquivalenceClasses(t *testing.T) {
	cat := catalog.New()
	tabs := make([]cardest.TableRef, 8)
	for i := range tabs {
		name := fmt.Sprintf("E%d", i)
		card := float64(1000 * (i + 1))
		cat.MustAddTable(catalog.SimpleTable(name, card, map[string]float64{"k": card / 4}))
		tabs[i] = cardest.TableRef{Table: name}
	}
	var preds []expr.Predicate
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 3}, {5, 7}, {3, 7}} {
		preds = append(preds, expr.NewJoin(
			ref(tabs[pair[0]].Table, "k"), expr.OpEQ, ref(tabs[pair[1]].Table, "k")))
	}
	var want Plan
	for round := 0; round < 20; round++ {
		est, err := cardest.New(cat, tabs, preds, cardest.SM())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(est, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := opt.BestPlan()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want == nil {
			want = got
		} else if got.String() != want.String() {
			t.Fatalf("round %d: plan %s differs from round 0's %s", round, got, want)
		}
	}
}
