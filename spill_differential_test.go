package els

import (
	"context"
	"os"
	"testing"

	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/querygen"
)

// spillBudget is the per-query byte budget the spill differential runs
// under: small enough that well over a quarter of the generated joins
// overflow it and take the Grace partition policy, large enough that scans
// and probe-side scratch never hard-fail.
const spillBudget = 4096

// execBudgeted runs the plan under the given byte budget (0: none) with the
// executor pointed at dir through the SetSpillDir no-op, returning the
// result, the governor's tuple/row charges, and the governor for spill and
// ledger introspection.
func execBudgeted(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, budget int64, dir string) (*executor.Result, [2]int64, *governor.Governor) {
	t.Helper()
	gov := governor.New(context.Background(), governor.Limits{MaxMemory: budget})
	exec := executor.NewGoverned(cat, gov)
	exec.SetSpillDir(dir)
	res, err := exec.Execute(plan)
	if err != nil {
		t.Fatalf("budget=%d: %v", budget, err)
	}
	tuples, rows, _ := gov.Usage()
	return res, [2]int64{tuples, rows}, gov
}

// TestDifferentialSpillVsInMemory is the referee the memory-governance
// tentpole is locked down by: 500 seeded random queries planned hash-only,
// each executed unbudgeted in memory (the oracle) and then under a byte
// budget tiny enough to force at least a quarter of them through the
// recursive partition policy. The partitioned result must be bit-identical
// — same rows in the same order, same TuplesScanned and Comparisons, same
// governor tuple/row charges — and the run must leave the directory it was
// pointed at empty. Divergences are appended to the ELS_DIFF_REPORT artifact
// before the test fails, and so are both runs' ledger peaks for every seed.
func TestDifferentialSpillVsInMemory(t *testing.T) {
	queries := differentialQueries(t)
	dir := t.TempDir()
	spilled := int64(0)
	for seed := int64(0); seed < queries; seed++ {
		q := querygen.Generate(seed)
		q.Methods = []optimizer.JoinMethod{optimizer.HashJoin}
		cat, plan := planGenerated(t, q)
		oracle, oracleUsage, oracleGov := execBudgeted(t, cat, plan, 0, dir)
		res, usage, gov := execBudgeted(t, cat, plan, spillBudget, dir)
		count, _ := gov.SpillStats()
		if count > 0 {
			spilled++
		}
		_, peak, _ := gov.MemoryUsage()
		_, oraclePeak, _ := oracleGov.MemoryUsage()
		diffReport(t, map[string]any{
			"harness": "spill-vs-inmemory", "seed": seed, "spills": count,
			"peak_bytes": peak, "inmemory_peak_bytes": oraclePeak,
		})
		fail := func(field string, got, want any) {
			diffReport(t, map[string]any{
				"harness": "spill-vs-inmemory", "seed": seed,
				"query": q.String(), "field": field, "spilled": got, "inmemory": want,
			})
			t.Fatalf("seed %d (%s): %s %v (spilled) vs %v (in-memory)", seed, q, field, got, want)
		}
		if res.Stats.RowsProduced != oracle.Stats.RowsProduced {
			fail("rows_produced", res.Stats.RowsProduced, oracle.Stats.RowsProduced)
		}
		if res.Stats.TuplesScanned != oracle.Stats.TuplesScanned {
			fail("tuples_scanned", res.Stats.TuplesScanned, oracle.Stats.TuplesScanned)
		}
		if res.Stats.Comparisons != oracle.Stats.Comparisons {
			fail("comparisons", res.Stats.Comparisons, oracle.Stats.Comparisons)
		}
		if usage != oracleUsage {
			fail("governor_usage", usage, oracleUsage)
		}
		assertSameRows(t, seed, q, oracle.Table, res.Table)
	}
	if spilled*4 < queries {
		t.Errorf("only %d of %d queries spilled; the acceptance bar is at least 25%%", spilled, queries)
	}
	if leaked, err := os.ReadDir(dir); err != nil || len(leaked) != 0 {
		t.Errorf("%d queries left %d entries in the spill dir (err %v)", queries, len(leaked), err)
	}
	t.Logf("spill differential: %d/%d queries spilled under a %d-byte budget", spilled, queries, spillBudget)
}
