package optimizer

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
)

// shapeEstimator builds an ELS estimator (closure on) over n tables joined
// as a chain (Tᵢ₋₁.b = Tᵢ.a) or a star (T₀.cᵢ = Tᵢ.a). Every edge has its
// own columns, so closure implies nothing and the join graph keeps its
// shape: a chain of n tables has n(n+1)/2 connected subsets.
func shapeEstimator(tb testing.TB, shape string, n int) *cardest.Estimator {
	tb.Helper()
	cat := catalog.New()
	var tabs []cardest.TableRef
	var preds []expr.Predicate
	hub := map[string]float64{}
	for i := 1; i < n; i++ {
		hub[fmt.Sprintf("c%d", i)] = float64(50 * i)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("T%d", i)
		cols := map[string]float64{"a": float64(100 + 10*i), "b": float64(200 + 7*i)}
		if shape == "star" && i == 0 {
			cols = hub
		}
		cat.MustAddTable(catalog.SimpleTable(name, float64(1000*(i+1)), cols))
		tabs = append(tabs, cardest.TableRef{Table: name})
		switch {
		case i == 0:
		case shape == "star":
			preds = append(preds, expr.NewJoin(ref("T0", fmt.Sprintf("c%d", i)), expr.OpEQ, ref(name, "a")))
		default:
			preds = append(preds, expr.NewJoin(ref(fmt.Sprintf("T%d", i-1), "b"), expr.OpEQ, ref(name, "a")))
		}
	}
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

// A 22-table chain has 253 connected subsets and about 500 candidate
// plans, which MaxPlans 1000 admits; the search must allocate in proportion
// to those, not to the 2²² subsets the governor never hears about.
func TestBestPlanWorkFollowsReachedSubsets(t *testing.T) {
	const n = 22
	opts := PaperOptions()
	opts.Governor = governor.New(context.Background(), governor.Limits{MaxPlans: 1000})
	o, err := New(shapeEstimator(t, "chain", n), opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan, err := o.BestPlan()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Tables()); got != n {
		t.Fatalf("plan covers %d tables, want %d", got, n)
	}
	if _, _, plans := opts.Governor.Usage(); plans != n*(n-1) {
		t.Errorf("charged %d plans, want %d (two ends of every proper interval)", plans, n*(n-1))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("BestPlan allocated %d bytes for %d connected subsets, want under 16 MiB", grew, n*(n+1)/2)
	}
}

var benchPlan Plan

func BenchmarkBestPlan(b *testing.B) {
	for _, shape := range []string{"chain", "star"} {
		for _, n := range []int{4, 6, 8} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				o, err := New(shapeEstimator(b, shape, n), PaperOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if benchPlan, err = o.BestPlan(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
