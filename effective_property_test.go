package els

import (
	"slices"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/querygen"
	"repro/internal/storage"
)

// Folding local predicates into a table's statistics (ELS step 4, and the
// standard algorithms' unreduced variant) can only remove rows and values:
// under every algorithm, each table's effective cardinality ‖R‖′ is at most
// its base ‖R‖, and each column's effective cardinality d′ at most its base
// d, over every generated query on analyzed data (with histograms, so the
// histogram selectivities are folded too).
func TestEffectiveStatsNeverExceedBase(t *testing.T) {
	n := differentialQueries(t)
	reduced := 0
	for seed := int64(0); seed < n; seed++ {
		q := querygen.Generate(seed)
		cat := loadGenerated(t, q, 16)
		for _, algo := range Algorithms() {
			cfg, err := algo.config()
			if err != nil {
				t.Fatal(err)
			}
			est, err := cardest.New(cat, q.Tables, q.Preds, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, algo, err)
			}
			for i, ref := range q.Tables {
				card, base, _ := est.Table(i)
				if card > base.Card {
					t.Errorf("seed %d %s: ‖%s‖′ = %g exceeds ‖%s‖ = %g (%s)",
						seed, algo, ref.Table, card, ref.Table, base.Card, q)
				}
				if card < base.Card {
					reduced++
				}
				for name, col := range base.Columns {
					if d, err := est.ColumnCard(i, name); err != nil || d > col.Distinct {
						t.Errorf("seed %d %s: d′(%s.%s) = %g (err %v) exceeds d = %g (%s)",
							seed, algo, ref.Table, name, d, err, col.Distinct, q)
					}
				}
			}
		}
	}
	if reduced == 0 {
		t.Error("no table had a local predicate to fold: the property was never exercised")
	}
}

// Adding a constant predicate to a table can only remove rows: over every
// generated query's tables, analyzed with and without histograms, adding a
// comparison of either column against a constant inside or outside its
// range, under every operator, never raises ‖R‖′ above what the table's own
// predicates gave. The property is per table; across a join the urn model
// may raise an estimate on purpose (DESIGN §2).
func TestConstPredicateNeverRaisesEffectiveCard(t *testing.T) {
	ops := []expr.CompareOp{expr.OpEQ, expr.OpNE, expr.OpLT, expr.OpLE, expr.OpGT, expr.OpGE}
	for seed := int64(0); seed < differentialQueries(t); seed++ {
		q := querygen.Generate(seed)
		for _, buckets := range []int{0, 16} {
			cat := loadGenerated(t, q, buckets)
			for _, ref := range q.Tables {
				var locals []expr.Predicate
				for _, p := range q.Preds {
					if p.Kind() == expr.KindLocalConst && p.References(ref.Table) {
						locals = append(locals, p)
					}
				}
				before, err := effectiveCard(cat, ref, locals)
				if err != nil {
					t.Fatal(err)
				}
				for _, col := range []string{"k", "v"} {
					for _, op := range ops {
						for _, c := range []int64{-1, 0, 5, 11, 59, 99, 100} {
							p := expr.NewConst(expr.ColumnRef{Table: ref.Table, Column: col}, op, storage.Int64(c))
							after, err := effectiveCard(cat, ref, append(slices.Clip(locals), p))
							if err != nil {
								t.Fatal(err)
							}
							if after > before {
								t.Errorf("seed %d, %d buckets: ‖%s‖′ rose from %g to %g adding %s to %s",
									seed, buckets, ref.Table, before, after, p, expr.FormatConjunction(locals))
							}
						}
					}
				}
			}
		}
	}
}

// effectiveCard is ‖R‖′ of one table under its local predicates, as
// Algorithm ELS folds them.
func effectiveCard(cat *catalog.Catalog, ref cardest.TableRef, locals []expr.Predicate) (float64, error) {
	est, err := cardest.New(cat, []cardest.TableRef{ref}, locals, cardest.ELS())
	if err != nil {
		return 0, err
	}
	card, _, _ := est.Table(0)
	return card, nil
}
