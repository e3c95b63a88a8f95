package els

import (
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/querygen"
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
		cat := catalog.New()
		for _, spec := range q.Specs {
			tbl, err := datagen.Generate(spec, q.DataSeed+int64(len(spec.Name)))
			if err != nil {
				t.Fatalf("seed %d: datagen: %v", seed, err)
			}
			if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{HistogramBuckets: 16}); err != nil {
				t.Fatalf("seed %d: analyze: %v", seed, err)
			}
		}
		for _, algo := range Algorithms() {
			cfg, err := algo.config()
			if err != nil {
				t.Fatal(err)
			}
			est, err := cardest.New(cat, q.Tables, q.Preds, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, algo, err)
			}
			for i := range q.Tables {
				eff, base, _ := est.Table(i)
				if eff.Card > base.Card {
					t.Errorf("seed %d %s: ‖%s‖′ = %g exceeds ‖%s‖ = %g (%s)",
						seed, algo, eff.Table, eff.Card, eff.Table, base.Card, q)
				}
				if eff.Card < base.Card {
					reduced++
				}
				for name, col := range base.Columns {
					if d, ok := eff.ColCard[name]; !ok || d > col.Distinct {
						t.Errorf("seed %d %s: d′(%s.%s) = %g (present %v) exceeds d = %g (%s)",
							seed, algo, eff.Table, name, d, ok, col.Distinct, q)
					}
				}
			}
		}
	}
	if reduced == 0 {
		t.Error("no table had a local predicate to fold: the property was never exercised")
	}
}
