package cardest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/selest"
)

// Sections 6 and 7 composed: chains where some tables contribute TWO join
// columns to the equivalence class (triggering the single-table
// j-equivalence fold) must still estimate order-independently under Rule
// LS and agree with Equation 3 over the folded statistics. The test folds
// each such table itself, through selest, and computes Equation 3 from the
// folded ‖R‖′ and d′.
func TestLSWithSection6FoldsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(4)
		cat := catalog.New()
		tabs := make([]TableRef, n)
		var preds []expr.Predicate
		aliases := make([]string, n)
		cards, ds := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("T%d", i)
			aliases[i] = name
			card := float64(100 + rng.Intn(50000))
			cols := map[string]float64{"a": float64(1 + rng.Intn(int(card)))}
			twoCols := rng.Intn(3) == 0
			if twoCols {
				cols["b"] = float64(1 + rng.Intn(int(card)))
			}
			ts := catalog.SimpleTable(name, card, cols)
			cat.MustAddTable(ts)
			tabs[i] = TableRef{Table: name}
			cards[i], ds[i] = card, cols["a"]
			if i > 0 {
				prev := fmt.Sprintf("T%d", rng.Intn(i))
				preds = append(preds, expr.NewJoin(
					expr.ColumnRef{Table: name, Column: "a"}, expr.OpEQ,
					expr.ColumnRef{Table: prev, Column: "a"}))
			}
			if twoCols && i > 0 {
				// The second column joins into the same class via another
				// table, making a and b j-equivalent within this table.
				other := fmt.Sprintf("T%d", rng.Intn(i))
				preds = append(preds, expr.NewJoin(
					expr.ColumnRef{Table: name, Column: "b"}, expr.OpEQ,
					expr.ColumnRef{Table: other, Column: "a"}))
				// Closure implies a = b within the table: Section 6's fold.
				eff, err := selest.EffectiveTable(ts, name, []expr.Predicate{expr.NewJoin(
					expr.ColumnRef{Table: name, Column: "a"}, expr.OpEQ,
					expr.ColumnRef{Table: name, Column: "b"})}, nil)
				if err != nil {
					t.Fatal(err)
				}
				cards[i], ds[i] = eff.Card, eff.ColCard["a"]
			}
		}
		e, err := New(cat, tabs, preds, ELS())
		if err != nil {
			t.Fatal(err)
		}
		want := equation3(cards, ds)
		for rep := 0; rep < 3; rep++ {
			order := make([]string, n)
			for i, p := range rng.Perm(n) {
				order[i] = aliases[p]
			}
			got, err := e.FinalSize(order)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEq(got, want) {
				t.Fatalf("trial %d: LS along %v = %g, Equation 3 = %g (preds %v)",
					trial, order, got, want, preds)
			}
		}
	}
}
