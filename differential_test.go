package els

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/experiment"
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
	cat := loadGenerated(t, q, 0)
	return cat, planMethods(t, cat, q, q.Methods)
}

// loadGenerated materializes one generated query's tables into a new
// catalog, analyzed with histograms of the given bucket budget (0: none).
func loadGenerated(t *testing.T, q querygen.Query, buckets int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range q.Specs {
		tbl, err := datagen.Generate(spec, q.DataSeed+int64(len(spec.Name)))
		if err != nil {
			t.Fatalf("%s: datagen: %v", q, err)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{HistogramBuckets: buckets}); err != nil {
			t.Fatalf("%s: analyze: %v", q, err)
		}
	}
	return cat
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

// noHashMethods is the repertoire the differentials plan a second time for
// a seed that offers sort-merge — the same methods minus the hash
// join, which the optimizer otherwise always prefers — and false for a seed
// that does not offer it.
func noHashMethods(q querygen.Query) ([]optimizer.JoinMethod, bool) {
	if !slices.Contains(q.Methods, optimizer.SortMerge) {
		return nil, false
	}
	return slices.DeleteFunc(slices.Clone(q.Methods), func(m optimizer.JoinMethod) bool { return m == optimizer.HashJoin }), true
}

// bestPlanDigest is the SHA-256 over the seed, the whole plan tree and the
// cost of every plan the differentials build for seeds 0–499. It was first
// computed where BestPlan still deferred each level's winners and merged them
// afterwards (workers 1 and 4 agreed there), and re-pinned when an equality
// stopped overriding the contradictory ranges on its column: seeds 16, 83,
// 103, 209, 229, 381 and 456 now estimate such a scan at 0 rows, and seed
// 381 plans nested loops instead of a hash join. Re-pinned when a hash
// build on an unfiltered loaded table, which the executor shares, was priced
// at nothing: 276 of the 760 plans changed shape, each a hash join that now
// builds on such a table, and 32 more changed only their cost.
const bestPlanDigest = "fca305eaf3f037dd1e2aad79fae536787c8926b6b9fa8fc71d8bf4f8ca9dc79b"

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

// executionDigest is the SHA-256 TestExecutionDigestPinned computes, taken
// where a row-at-a-time engine still refereed the columnar one and nested
// loops evaluated boxed rows, and re-pinned with bestPlanDigest each time.
// Re-pinned when index nested-loops was removed: the digest then lost each
// two-table seed's nested-loops + index nested-loops plan and the Section 8
// run with indexes, and nothing else (the parent commit, skipping those
// entries, computes the same value).
const executionDigest = "f02b1d2ad5561c16cfa939be53babf3f28a51a732c26a84c82cf0cb1813ec607"

// ledgerDigest is the SHA-256 over the byte ledger of the same governed runs
// — peak bytes, partitioning passes and build bytes routed — taken where
// scans without predicates still copied their base table and the hash join
// built a map per partition, and re-pinned with bestPlanDigest each time,
// and with executionDigest when index nested-loops was removed. Re-pinned
// alone when a scan's first conjunct came to be answered off the column's
// sort permutation: the scan charges its row bitmap while it holds it, and
// without that charge the code computes the previous value.
const ledgerDigest = "4a20c31ebb70e8430bb479d22b37575cc9bf895d3541cd6205fe56b661111784"

// TestExecutionDigestPinned holds execution to the rows, row order, work
// counters and governor tuple/row charges it produced before every operator
// moved onto the pair sink: every plan of the brute-force differential for
// seeds 0–499, unbudgeted and under its byte budget, and the Section 8
// experiment at scale 10. The brute-force
// differential checks the row multisets; this checks everything else. A
// second digest holds the governed runs' byte ledgers, on which every
// partition decision rests.
func TestExecutionDigestPinned(t *testing.T) {
	h, ledger := sha256.New(), sha256.New()
	for seed := int64(0); seed < 500; seed++ {
		q := querygen.Generate(seed)
		cat, plans := differentialPlans(t, q)
		for i, plan := range plans {
			for _, budget := range []int64{0, diffBudget(plan)} {
				res, usage, gov := execGoverned(t, cat, plan, budget)
				fmt.Fprintf(h, "%d %d %d: %d %d %d %v\n", seed, i, budget,
					res.Stats.TuplesScanned, res.Stats.Comparisons, res.Stats.RowsProduced, usage)
				hashRows(h, res.Table)
				_, peak, _ := gov.MemoryUsage()
				spills, spilled := gov.SpillStats()
				fmt.Fprintf(ledger, "%d %d %d: %d %d %d\n", seed, i, budget, peak, spills, spilled)
			}
		}
	}
	if got := hex.EncodeToString(ledger.Sum(nil)); got != ledgerDigest {
		t.Errorf("ledger digest %s, want %s", got, ledgerDigest)
	}
	res, err := experiment.RunSection8(experiment.Section8Options{Scale: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		fmt.Fprintf(h, "%s %s\n%s%d %d %d %d\n", r.Query, r.Algorithm, r.Plan,
			r.TrueCount, r.Stats.TuplesScanned, r.Stats.Comparisons, r.Stats.RowsProduced)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != executionDigest {
		t.Fatalf("execution digest %s, want %s", got, executionDigest)
	}
}

// TestLiveColumnsMatchFullExecution holds execution that carries only some
// output columns to the full run. Every plan of the differentials for the
// seeds, unbudgeted and under its byte budget, runs with every output column,
// with none (a COUNT(*) root) and with a seed-chosen subset. Rows produced,
// work counters and the governor's tuple/row charges must be the full run's;
// exactly the columns asked for are live, each equal to the full run's row
// for row; and unbudgeted, carrying less never raises the ledger peak.
func TestLiveColumnsMatchFullExecution(t *testing.T) {
	for seed := int64(0); seed < differentialQueries(t); seed++ {
		q := querygen.Generate(seed)
		cat, plans := differentialPlans(t, q)
		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		for _, plan := range plans {
			for _, budget := range []int64{0, diffBudget(plan)} {
				full, fullUsage, fullGov := execGoverned(t, cat, plan, budget)
				_, fullPeak, _ := fullGov.MemoryUsage()
				width := full.Table.Schema().NumColumns()
				subset := []int{}
				for c := 0; c < width; c++ {
					if rng.IntN(2) == 0 {
						subset = append(subset, c)
					}
				}
				for _, cols := range [][]int{{}, subset} {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("seed %d (%s), plan %s, budget %d, columns %v: %s", seed, q, plan, budget, cols, fmt.Sprintf(format, args...))
					}
					gov := governor.New(context.Background(), governor.Limits{MaxMemory: budget})
					res, err := executor.NewGoverned(cat, gov).ExecuteColumns(plan, cols)
					if err != nil {
						fail("%v", err)
					}
					got, want := res.Stats, full.Stats
					if got.RowsProduced != want.RowsProduced || got.TuplesScanned != want.TuplesScanned || got.Comparisons != want.Comparisons {
						fail("rows, tuples, comparisons %d %d %d, full run %d %d %d", got.RowsProduced, got.TuplesScanned,
							got.Comparisons, want.RowsProduced, want.TuplesScanned, want.Comparisons)
					}
					if tuples, rows, _ := gov.Usage(); [2]int64{tuples, rows} != fullUsage {
						fail("governor charged %d tuples, %d rows; full run %v", tuples, rows, fullUsage)
					}
					for c := 0; c < width; c++ {
						if live := res.Table.Live(c); live != slices.Contains(cols, c) {
							fail("column %d live %v", c, live)
						} else if !live {
							continue
						}
						for r := 0; r < res.Table.NumRows(); r++ {
							a, b := res.Table.Value(r, c), full.Table.Value(r, c)
							if a.IsNull() != b.IsNull() || a.Key() != b.Key() {
								fail("row %d column %d is %s, full run %s", r, c, a, b)
							}
						}
					}
					if _, peak, _ := gov.MemoryUsage(); budget == 0 && peak > fullPeak {
						fail("ledger peak %d, full run %d", peak, fullPeak)
					}
				}
			}
		}
	}
}

// hashRows writes the table's values to h column by column, each column in
// row order, which fixes the order of the rows as well as their values.
func hashRows(h io.Writer, tbl *storage.Table) {
	var buf []byte
	for c := 0; c < tbl.Schema().NumColumns(); c++ {
		d := tbl.ColumnData(c)
		buf = append(buf[:0], byte(d.Type))
		for r := 0; r < tbl.NumRows(); r++ {
			switch {
			case d.Null(r):
				buf = append(buf, 'N')
			case d.Type == storage.TypeInt64:
				buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Ints[r]))
			case d.Type == storage.TypeFloat64:
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(d.Floats[r]))
			case d.Type == storage.TypeString:
				buf = append(append(buf, d.Strs[r]...), 0)
			case d.Bools[r]:
				buf = append(buf, 1)
			default:
				buf = append(buf, 0)
			}
		}
		h.Write(buf)
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

// differentialPlans plans one generated query every way the differentials
// execute it: over its own repertoire; for a seed that offers sort-merge,
// once more without the hash join, which the optimizer otherwise always
// prefers, so the typed sort-merge kernel is exercised; and for a two-table
// seed, once more over nested loops alone, which the optimizer seldom picks
// otherwise, so the re-scanned inner is too.
func differentialPlans(t *testing.T, q querygen.Query) (*catalog.Catalog, []optimizer.Plan) {
	t.Helper()
	cat, plan := planGenerated(t, q)
	plans := []optimizer.Plan{plan}
	if noHash, ok := noHashMethods(q); ok {
		plans = append(plans, planMethods(t, cat, q, noHash))
	}
	if len(q.Tables) == 2 {
		plans = append(plans, planMethods(t, cat, q, []optimizer.JoinMethod{optimizer.NestedLoop}))
	}
	return cat, plans
}

// diffBudget is the byte budget of a plan's budgeted run: 4 KiB, so hash-join
// build sides that overflow it take the partition policy, or 1 MiB for a plan
// with a sort-merge join, whose sort scratch cannot be partitioned.
func diffBudget(plan optimizer.Plan) int64 {
	if hasJoinMethod(plan, optimizer.SortMerge) {
		return 1 << 20
	}
	return 4096
}

// execGoverned runs the plan on a fresh governor under the given byte budget
// (0: none), returning the result, the governor's tuple/row charges and the
// governor.
func execGoverned(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, budget int64) (*executor.Result, [2]int64, *governor.Governor) {
	t.Helper()
	gov := governor.New(context.Background(), governor.Limits{MaxMemory: budget})
	res, err := executor.NewGoverned(cat, gov).Execute(plan)
	if err != nil {
		t.Fatalf("plan %s, budget %d: %v", plan, budget, err)
	}
	tuples, rows, _ := gov.Usage()
	return res, [2]int64{tuples, rows}, gov
}

// TestDifferentialBruteForce holds every plan of every seeded random query
// to the brute-force evaluator, which shares no code with the executor: the
// result must be the evaluator's row multiset, unbudgeted and under the
// plan's byte budget, and the budgeted run's work counters and governor
// tuple/row charges must equal the unbudgeted run's (TestExecutionDigestPinned
// holds both to the row order and counters they had when a row-at-a-time
// engine refereed them). Any divergence is appended to the ELS_DIFF_REPORT
// artifact before the test fails, and so is what the seeds covered: how many
// ran nested loops, a sort-merge join and a hash join that partitioned under
// the budget. Each count has a floor.
func TestDifferentialBruteForce(t *testing.T) {
	queries := differentialQueries(t)
	seeds := map[string]int64{} // per operator, the seeds that ran it
	for seed := int64(0); seed < queries; seed++ {
		q := querygen.Generate(seed)
		cat, plans := differentialPlans(t, q)
		want, names, err := bruteforce.Of(cat, q.Tables, q.Preds, nil)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, q, err)
		}
		covered := map[string]bool{}
		for _, plan := range plans {
			fail := func(field string, got, want any) {
				diffReport(t, map[string]any{
					"harness": "brute-force", "seed": seed, "plan": plan.String(),
					"query": q.String(), "field": field, "got": got, "want": want,
				})
				t.Fatalf("seed %d (%s, plan %s): %s %v, want %v", seed, q, plan, field, got, want)
			}
			base, baseUsage, _ := execGoverned(t, cat, plan, 0)
			budgeted, usage, gov := execGoverned(t, cat, plan, diffBudget(plan))
			for _, res := range []*executor.Result{base, budgeted} {
				var got bruteforce.Multiset
				if err := got.AddTable(res.Table, names); err != nil {
					t.Fatalf("seed %d (%s, plan %s): %v", seed, q, plan, err)
				}
				if got != want {
					fail("rows", got, want)
				}
			}
			if s, b := budgeted.Stats, base.Stats; s.TuplesScanned != b.TuplesScanned || s.Comparisons != b.Comparisons {
				fail("budgeted tuples, comparisons", [2]int64{s.TuplesScanned, s.Comparisons}, [2]int64{b.TuplesScanned, b.Comparisons})
			}
			if usage != baseUsage {
				fail("budgeted governor_usage", usage, baseUsage)
			}
			if spills, _ := gov.SpillStats(); spills > 0 {
				covered["partitioned"] = true
			}
			for _, m := range []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge} {
				if hasJoinMethod(plan, m) {
					covered[m.String()] = true
				}
			}
		}
		for what := range covered {
			seeds[what]++
		}
	}
	diffReport(t, map[string]any{"harness": "brute-force", "queries": queries, "seeds": seeds})
	t.Logf("brute-force differential: of %d seeds, %v", queries, seeds)
	// Each floor is a share of the seeds, below what they covered when it was
	// set: NL 164, SM 177 and partitioned 278 of 500, and 11, 15 and 31 of
	// the 60 of -short. Below it the differential has stopped exercising that
	// operator.
	for what, share := range map[string]int64{"NL": 8, "SM": 5, "partitioned": 3} {
		if seeds[what]*share < queries {
			t.Errorf("only %d of %d seeds ran %s; the floor is 1/%d of them", seeds[what], queries, what, share)
		}
	}
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
