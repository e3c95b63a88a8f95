package els

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/querygen"
	"repro/internal/storage"
)

// differentialQueries is how many seeded random queries the harness runs.
// Short mode trims it so -race CI legs stay fast; the full run satisfies
// the 500-query acceptance bar.
func differentialQueries(t *testing.T) int64 {
	if testing.Short() {
		return 60
	}
	return 500
}

// planGenerated materializes one generated query's tables into a catalog
// and plans it.
func planGenerated(t *testing.T, q querygen.Query) (*catalog.Catalog, optimizer.Plan) {
	t.Helper()
	cat := catalog.New()
	for _, spec := range q.Specs {
		tbl, err := datagen.Generate(spec, q.DataSeed+int64(len(spec.Name)))
		if err != nil {
			t.Fatalf("%s: datagen: %v", q, err)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatalf("%s: analyze: %v", q, err)
		}
	}
	return cat, planMethods(t, cat, q, q.Methods)
}

// planMethods plans the generated query over its catalog with the given
// join-method repertoire.
func planMethods(t *testing.T, cat *catalog.Catalog, q querygen.Query, methods []optimizer.JoinMethod) optimizer.Plan {
	t.Helper()
	est, err := cardest.New(cat, q.Tables, q.Preds, cardest.ELS())
	if err != nil {
		t.Fatalf("%s: cardest: %v", q, err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: methods})
	if err != nil {
		t.Fatalf("%s: optimizer: %v", q, err)
	}
	plan, err := opt.BestPlan()
	if err != nil {
		t.Fatalf("%s: plan: %v", q, err)
	}
	return plan
}

// noHashMethods is the repertoire the columnar differential plans a second
// time for a seed that offers sort-merge — the same methods minus the hash
// join, which the optimizer otherwise always prefers — and false for a seed
// that does not offer it.
func noHashMethods(q querygen.Query) ([]optimizer.JoinMethod, bool) {
	if !slices.Contains(q.Methods, optimizer.SortMerge) {
		return nil, false
	}
	return slices.DeleteFunc(slices.Clone(q.Methods), func(m optimizer.JoinMethod) bool { return m == optimizer.HashJoin }), true
}

// bestPlanDigest is the SHA-256 over the seed, the whole plan tree and the
// cost of every plan the differentials build for seeds 0–499, computed where
// BestPlan still deferred each level's winners and merged them afterwards
// (workers 1 and 4 agreed there).
const bestPlanDigest = "7c4a19d455a5d582046f459468c4b57c77425e297e475e1208afec9242d678c3"

// TestBestPlanDigestPinned holds the DP search to the plans it chose before
// it wrote winners straight into its table: any change in visiting order or
// tie-breaking moves the digest.
func TestBestPlanDigestPinned(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 500; seed++ {
		q := querygen.Generate(seed)
		cat, plan := planGenerated(t, q)
		plans := []optimizer.Plan{plan}
		if methods, ok := noHashMethods(q); ok {
			plans = append(plans, planMethods(t, cat, q, methods))
		}
		for _, plan := range plans {
			fmt.Fprintf(h, "%d\n%s%v\n", seed, optimizer.Format(plan), plan.Cost())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != bestPlanDigest {
		t.Fatalf("plan digest %s, want %s", got, bestPlanDigest)
	}
}

func assertSameRows(t *testing.T, seed int64, q querygen.Query, a, b *storage.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("seed %d (%s): %d vs %d result rows", seed, q, a.NumRows(), b.NumRows())
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.Schema().NumColumns(); c++ {
			if storage.Compare(a.Value(r, c), b.Value(r, c)) != 0 {
				t.Fatalf("seed %d (%s): result differs at row %d col %d: %s vs %s",
					seed, q, r, c, a.Value(r, c), b.Value(r, c))
			}
		}
	}
}

// diffReport appends one JSONL divergence record to the file named by the
// ELS_DIFF_REPORT environment variable — the artifact the CI
// executor-differential job uploads on failure. Without the variable it is
// a no-op; the t.Fatalf that follows every call carries the same facts.
func diffReport(t *testing.T, fields map[string]any) {
	t.Helper()
	path := os.Getenv("ELS_DIFF_REPORT")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Logf("ELS_DIFF_REPORT: %v", err)
		return
	}
	defer f.Close()
	b, err := json.Marshal(fields)
	if err != nil {
		return
	}
	f.Write(append(b, '\n'))
}

// execEngine runs the plan with the given engine (columnar or
// row-at-a-time) on a fresh governor, returning the result plus the
// governor's tuple/row charge counters.
func execEngine(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, columnar bool) (*executor.Result, [2]int64) {
	t.Helper()
	gov := governor.New(context.Background(), governor.Limits{DisableColumnar: !columnar})
	res, err := executor.NewGoverned(cat, gov).Execute(plan)
	if err != nil {
		t.Fatalf("columnar=%v: %v", columnar, err)
	}
	tuples, rows, _ := gov.Usage()
	return res, [2]int64{tuples, rows}
}

// TestDifferentialColumnarVsRow is the referee the columnar tentpole is
// locked down by: for every seeded random query, the row-at-a-time result
// is the oracle, and the columnar engine must reproduce it bit-identically
// — same rows in the same order, same TuplesScanned and Comparisons, and
// the same governor tuple/row charges. Any divergence is appended to the
// ELS_DIFF_REPORT artifact before the test fails, and so is the number of
// seeds that ran a sort-merge join, which has a floor.
func TestDifferentialColumnarVsRow(t *testing.T) {
	queries := differentialQueries(t)
	sortMerged := int64(0)
	for seed := int64(0); seed < queries; seed++ {
		q := querygen.Generate(seed)
		cat, plan := planGenerated(t, q)
		plans := []optimizer.Plan{plan}
		// The optimizer never prefers sort-merge while the hash join is on
		// offer, so a seed whose repertoire has sort-merge is also planned
		// without the hash join: that plan is what referees the typed
		// sort-merge kernel.
		if noHash, ok := noHashMethods(q); ok {
			plans = append(plans, planMethods(t, cat, q, noHash))
			if hasJoinMethod(plans[1], optimizer.SortMerge) {
				sortMerged++
			}
		}
		for _, plan := range plans {
			row, rowUsage := execEngine(t, cat, plan, false)
			col, colUsage := execEngine(t, cat, plan, true)
			fail := func(field string, got, want any) {
				diffReport(t, map[string]any{
					"harness": "columnar-vs-row", "seed": seed, "plan": plan.String(),
					"query": q.String(), "field": field, "columnar": got, "row": want,
				})
				t.Fatalf("seed %d (%s, plan %s): %s %v (columnar) vs %v (row)",
					seed, q, plan, field, got, want)
			}
			if col.Stats.RowsProduced != row.Stats.RowsProduced {
				fail("rows_produced", col.Stats.RowsProduced, row.Stats.RowsProduced)
			}
			if col.Stats.TuplesScanned != row.Stats.TuplesScanned {
				fail("tuples_scanned", col.Stats.TuplesScanned, row.Stats.TuplesScanned)
			}
			if col.Stats.Comparisons != row.Stats.Comparisons {
				fail("comparisons", col.Stats.Comparisons, row.Stats.Comparisons)
			}
			if colUsage != rowUsage {
				fail("governor_usage", colUsage, rowUsage)
			}
			assertSameRows(t, seed, q, row.Table, col.Table)
		}
	}
	// querygen offers sort-merge on about half the seeds, and where nested
	// loops are on offer too they sometimes win (177 of 500 seeds ran a
	// sort-merge join when this was written, 15 of the 60 of -short). Below a
	// fifth the differential has stopped covering the typed kernel.
	diffReport(t, map[string]any{
		"harness": "columnar-vs-row", "queries": queries, "sort_merge_plans": sortMerged,
	})
	if sortMerged*5 < queries {
		t.Errorf("only %d of %d seeds ran a sort-merge join; the floor is a fifth", sortMerged, queries)
	}
	t.Logf("columnar differential: %d/%d seeds ran a sort-merge join", sortMerged, queries)
}

// hasJoinMethod reports whether any join of the plan uses method m.
func hasJoinMethod(p optimizer.Plan, m optimizer.JoinMethod) bool {
	j, ok := p.(*optimizer.Join)
	return ok && (j.Method == m || hasJoinMethod(j.Left, m) || hasJoinMethod(j.Right, m))
}

// Admission control must be invisible to a single serial client: the same
// SQL with admission off vs MaxConcurrent=1 (every query waits for the one
// slot) returns bit-identical counts and work counters, and the estimates
// agree too. Admission gates *when* a query runs, never *what* it computes.
func TestDifferentialAdmissionOnOff(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5",
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a",
		"SELECT COUNT(*) FROM R WHERE R.b < 3",
	}
	run := func(limits Limits) ([]*Result, []*Estimate) {
		sys := New()
		mkRows := func(n, dom int) [][]int64 {
			rows := make([][]int64, n)
			for i := range rows {
				rows[i] = []int64{int64(i % dom), int64(i % 7)}
			}
			return rows
		}
		if err := sys.LoadTable("R", []string{"a", "b"}, mkRows(200, 10)); err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadTable("S", []string{"a", "c"}, mkRows(300, 10)); err != nil {
			t.Fatal(err)
		}
		sys.SetLimits(limits)
		var results []*Result
		var ests []*Estimate
		for _, sql := range queries {
			res, err := sys.Query(sql, AlgorithmELS)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			est, err := sys.Estimate(sql, AlgorithmELS)
			if err != nil {
				t.Fatalf("%q: estimate: %v", sql, err)
			}
			results = append(results, res)
			ests = append(ests, est)
		}
		return results, ests
	}
	off, offEst := run(Limits{})
	on, onEst := run(Limits{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	for i, sql := range queries {
		if on[i].Count != off[i].Count ||
			on[i].TuplesScanned != off[i].TuplesScanned ||
			on[i].Comparisons != off[i].Comparisons ||
			!reflect.DeepEqual(on[i].Rows, off[i].Rows) {
			t.Errorf("%q: admission on (count %d, tuples %d, cmp %d) vs off (%d, %d, %d)",
				sql, on[i].Count, on[i].TuplesScanned, on[i].Comparisons,
				off[i].Count, off[i].TuplesScanned, off[i].Comparisons)
		}
		if onEst[i].FinalSize != offEst[i].FinalSize {
			t.Errorf("%q: estimate %v (admission on) vs %v (off)",
				sql, onEst[i].FinalSize, offEst[i].FinalSize)
		}
	}
}
