package els

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/querygen"
	"repro/internal/snapshot"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

func cacheTestSystem(t *testing.T) *System {
	t.Helper()
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
	return sys
}

// A repeated estimate is served from cache and is identical field for
// field to the cold one.
func TestCacheHitServesIdenticalEstimate(t *testing.T) {
	sys := cacheTestSystem(t)
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5"
	cold, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached estimate differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	st := sys.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	// The hit returned a copy: stamping one estimate must not leak into
	// later serves (replicas stamp lag on their copies).
	warm.ReplicaLag = 99
	again, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if again.ReplicaLag != 0 {
		t.Fatal("mutating a served estimate leaked into the cache")
	}
}

// The cache hands one plan tree — and, to identical texts, one bound query —
// to every query that hits it, so neither is ever written after it is
// stored: reading them from several goroutines at once is race-free (the
// race detector is the assertion). With no publisher every reader gets the
// very same tree and query; with one publishing versions underneath, entries
// and their aliases are retired and rebuilt while readers hold them, and
// every reader still sees the one plan this statement has.
func TestCachedPlanSharedByConcurrentReaders(t *testing.T) {
	sys := paperSystem(t)
	prepare := func() (q *sqlparse.Query, plan optimizer.Plan) {
		err := sys.serve(context.Background(), func(gov *governor.Governor, snap *snapshot.Snapshot) (err error) {
			q, plan, _, err = sys.planFor(gov, snap, example1bSQL, AlgorithmELS, nil)
			return err
		})
		if err != nil {
			t.Error(err)
		}
		return q, plan
	}
	coldQ, cold := prepare()
	if t.Failed() {
		t.FailNow()
	}
	want, wantSQL := optimizer.Format(cold), coldQ.String()
	for _, publishing := range []bool{false, true} {
		stop, published := make(chan struct{}), make(chan struct{})
		if publishing {
			go func() {
				defer close(published)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						// A table the statement does not read: its plan is the
						// same at every version.
						sys.MustDeclareStats("Unrelated", float64(100+i%2), map[string]float64{"u": 10})
					}
				}
			}()
		} else {
			close(published)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					q, plan := prepare()
					if q == nil {
						return
					}
					if !publishing && (plan != cold || q != coldQ) {
						t.Error("a text hit returned another plan tree or another bound query")
						return
					}
					if got := q.String(); got != wantSQL {
						t.Errorf("bound query renders %q, want %q", got, wantSQL)
					}
					if got := plan.Tables(); !reflect.DeepEqual(got, []string{"R1", "R2", "R3"}) {
						t.Errorf("Tables() = %v", got)
					}
					if got := plan.String() + "\n"; got != want[:len(got)] {
						t.Errorf("String() = %q, Format starts %q", got, want[:len(got)])
					}
					if got := optimizer.Format(plan); got != want {
						t.Errorf("Format differs under concurrency:\n%s\nwant\n%s", got, want)
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-published
	}
	if st := sys.CacheStats(); st.TextHits < 8*20 {
		t.Fatalf("the readers were to share one text's alias; text hits = %d of %d hits", st.TextHits, st.Hits)
	}
}

// Formatting-only variants of one statement share a cache entry;
// semantically distinct statements and distinct algorithms do not.
func TestCacheKeyNormalizationAndDiscrimination(t *testing.T) {
	sys := cacheTestSystem(t)
	if _, err := sys.Estimate("SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5", AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{
		"select count(*) from R,S where R.b<5 and R.a=S.a",
		"SELECT COUNT(*) FROM r, s WHERE s.A = r.A AND r.B < 5",
	} {
		if _, err := sys.Estimate(variant, AlgorithmELS); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("normalized variants: hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	// A different algorithm and a different constant are different keys.
	if _, err := sys.Estimate("SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5", AlgorithmSM); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Estimate("SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 6", AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Misses != 3 {
		t.Fatalf("distinct algo/constant: misses = %d, want 3", st.Misses)
	}
}

// Publishing a new catalog version invalidates — and a query after the
// bump re-plans against the new statistics, never a cached stale estimate.
func TestCacheInvalidationOnPublish(t *testing.T) {
	sys := New()
	sys.MustDeclareStats("V", 1000, map[string]float64{"x": 10})
	const sql = "SELECT COUNT(*) FROM V"
	est, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.FinalSize != 1000 {
		t.Fatalf("cold estimate %g, want 1000", est.FinalSize)
	}
	if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	v1 := sys.CatalogVersion()
	sys.MustDeclareStats("V", 2000, map[string]float64{"x": 10})
	est2, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est2.FinalSize != 2000 {
		t.Fatalf("estimate after publish = %g, want 2000 (stale cache serve?)", est2.FinalSize)
	}
	if est2.CatalogVersion != v1+1 {
		t.Fatalf("estimate pinned version %d, want %d", est2.CatalogVersion, v1+1)
	}
	if st := sys.CacheStats(); st.Invalidations == 0 {
		t.Fatalf("publish retired no entries: %+v", st)
	}
}

// Limits.DisableCache bypasses the cache wholesale — no lookups, no
// stores — and results are unchanged.
func TestCacheDisable(t *testing.T) {
	sys := cacheTestSystem(t)
	sys.SetLimits(Limits{DisableCache: true})
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	a, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("estimates differ with the cache disabled")
	}
	if st := sys.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache was touched: %+v", st)
	}
}

// EstimateOrder caches under an order-suffixed key: the same SQL with
// different forced orders occupies different entries, repeats hit, and
// the best-plan entry is separate from any forced-order one.
func TestCacheOrderSuffix(t *testing.T) {
	sys := cacheTestSystem(t)
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	ordRS, err := sys.EstimateOrder(sql, AlgorithmELS, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.EstimateOrder(sql, AlgorithmELS, []string{"S", "R"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("three distinct keys expected: %+v", st)
	}
	warm, err := sys.EstimateOrder(sql, AlgorithmELS, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.CacheStats(); st.Hits != 1 {
		t.Fatalf("repeated order was not a hit: %+v", st)
	}
	if !reflect.DeepEqual(ordRS, warm) {
		t.Fatalf("cached ordered estimate differs:\ncold %+v\nwarm %+v", ordRS, warm)
	}
}

// Limits.PlanCacheSize bounds the cache; overflow evicts LRU entries.
func TestCachePlanCacheSizeLimit(t *testing.T) {
	sys := cacheTestSystem(t)
	sys.SetLimits(Limits{PlanCacheSize: 2})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM R WHERE R.b < 1",
		"SELECT COUNT(*) FROM R WHERE R.b < 2",
		"SELECT COUNT(*) FROM R WHERE R.b < 3",
	} {
		if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.CacheStats()
	if st.Capacity != 2 || st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("bounded cache stats = %+v", st)
	}
}

// differentialStatement renders a generated query as one of three statement
// shapes (COUNT(*), a projection, a GROUP BY aggregate) and, beside it, a
// variant that differs in formatting only: keywords, tables and columns
// re-cased, blanks doubled. Conjunct and operand order are kept, because the
// Comparisons counter and the rendered predicates legitimately follow them.
func differentialStatement(q querygen.Query, shape int) (text, variant string) {
	render := func(kw, ident func(string) string, sp string) string {
		col := func(t int, c string) string { return ident(q.Tables[t].Table + "." + c) }
		var b strings.Builder
		b.WriteString(kw("SELECT") + sp)
		switch shape {
		case 0:
			b.WriteString(kw("COUNT") + "(*)")
		case 1:
			b.WriteString(col(0, "k") + "," + sp + col(len(q.Tables)-1, "v"))
		default:
			b.WriteString(col(0, "k") + "," + sp + kw("COUNT") + "(*)," + sp + kw("MAX") + "(" + col(len(q.Tables)-1, "v") + ")")
		}
		b.WriteString(sp + kw("FROM") + sp)
		for i, t := range q.Tables {
			if i > 0 {
				b.WriteString("," + sp)
			}
			b.WriteString(ident(t.Table))
		}
		for i, p := range q.Preds {
			if i == 0 {
				b.WriteString(sp + kw("WHERE") + sp)
			} else {
				b.WriteString(sp + kw("AND") + sp)
			}
			b.WriteString(ident(p.Left.String()) + sp + p.Op.String() + sp)
			if p.RightIsColumn {
				b.WriteString(ident(p.Right.String()))
			} else {
				b.WriteString(p.Const.String())
			}
		}
		if shape > 1 {
			b.WriteString(sp + kw("GROUP") + sp + kw("BY") + sp + col(0, "k"))
		}
		return b.String()
	}
	same := func(s string) string { return s }
	swapCase := func(s string) string {
		return strings.Map(func(r rune) rune {
			if unicode.IsUpper(r) {
				return unicode.ToLower(r)
			}
			return unicode.ToUpper(r)
		}, s)
	}
	return render(same, same, " "), render(strings.ToLower, swapCase, "  ")
}

// foldPlanCase lower-cases every string a Result renders from its plan.
// Formatting variants share one cache entry, so a variant is served the plan
// and estimate built from the first spelling seen; they must equal fresh ones
// in everything but identifier case. Columns and Rows come from the text's
// own bound query and are left alone.
func foldPlanCase(res *Result) {
	for i := range res.Nodes {
		res.Nodes[i].Node = strings.ToLower(res.Nodes[i].Node)
	}
	e := res.Estimate
	fold := func(ss []string) {
		for i := range ss {
			ss[i] = strings.ToLower(ss[i])
		}
	}
	e.JoinOrder = slices.Clone(e.JoinOrder) // hits share the cached template's slices
	e.ImpliedPredicates = slices.Clone(e.ImpliedPredicates)
	e.Steps = slices.Clone(e.Steps)
	fold(e.JoinOrder)
	fold(e.ImpliedPredicates)
	e.PlanText = strings.ToLower(e.PlanText)
	for i := range e.Steps {
		e.Steps[i].Table = strings.ToLower(e.Steps[i].Table)
		e.Steps[i].EligiblePredicates = slices.Clone(e.Steps[i].EligiblePredicates)
		fold(e.Steps[i].EligiblePredicates)
	}
}

// The cache must be invisible to results. Every generated statement is
// issued three times on a caching System — first sight (a miss), the
// identical text (a text hit: no lex, parse, bind or Canonical), and a
// re-cased, re-spaced variant (a hit by canonical key, not by text) — and
// each result equals, field by field, what a System that never caches
// returns for the same text: counts, work counters, estimates, and the
// Columns and Rows spelled as that text wrote them.
func TestDifferentialCacheOnOff(t *testing.T) {
	n := differentialQueries(t)
	type statement struct{ text, variant string }
	var stmts []statement
	var tables []*storage.Table
	for seed := int64(0); seed < n; seed++ {
		q := querygen.GenerateNamed(seed, fmt.Sprintf("D%dT", seed))
		for _, spec := range q.Specs {
			tbl, err := datagen.Generate(spec, q.DataSeed+int64(len(spec.Name)))
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tbl)
		}
		text, variant := differentialStatement(q, int(seed%3))
		stmts = append(stmts, statement{text, variant})
	}
	system := func(limits Limits) *System {
		sys := New()
		sys.SetLimits(limits)
		err := sys.mutate(func(cat *catalog.Catalog) error {
			for _, tbl := range tables {
				if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	query := func(sys *System, sql string) *Result {
		res, err := sys.Query(sql, AlgorithmELS)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		res.Elapsed = 0 // wall clock is not part of the contract
		return res
	}
	same := func(issue, sql string, on, off *Result) {
		t.Helper()
		if !reflect.DeepEqual(on, off) {
			diffReport(t, map[string]any{
				"harness": "cache-on-vs-off", "issue": issue, "query": sql,
				"on": fmt.Sprintf("%+v", on), "off": fmt.Sprintf("%+v", off),
			})
			t.Fatalf("%q: %s differs from cache off:\non  %+v\noff %+v", sql, issue, on, off)
		}
	}
	on, off := system(Limits{}), system(Limits{DisableCache: true})
	route := &textRoute{t: t, sys: on}
	for _, s := range stmts {
		want, wantVariant := query(off, s.text), query(off, s.variant)
		first := query(on, s.text)
		route.expect(s.text+": first sight", 0, 0, 1)
		again := query(on, s.text)
		route.expect(s.text+": identical text", 1, 1, 0)
		variant := query(on, s.variant)
		route.expect(s.variant+": formatting variant", 1, 0, 0)
		// A miss charges the entry it stores to the query's byte ledger (see
		// planFor), so on a small query its peak is the entry, not the
		// execution; hits charge nothing and must match exactly.
		if first.PeakMemoryBytes < want.PeakMemoryBytes {
			t.Fatalf("%q: first sight peaked at %d bytes, below cache off's %d", s.text, first.PeakMemoryBytes, want.PeakMemoryBytes)
		}
		first.PeakMemoryBytes = want.PeakMemoryBytes
		same("first sight", s.text, first, want)
		same("text hit", s.text, again, want)
		if len(want.Columns) > 0 && reflect.DeepEqual(wantVariant.Columns, want.Columns) {
			t.Fatalf("%q: the variant spells its columns the same (%v); the test lost its point", s.variant, want.Columns)
		}
		foldPlanCase(variant)
		foldPlanCase(wantVariant)
		same("canonical hit", s.variant, variant, wantVariant)
	}
	if st := off.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("the cache-off System touched its cache: %+v", st)
	}
}

// The join repertoire depends on whether a byte budget is set (sort-merge
// without one, the spillable hash join with one), so a plan cached without
// a budget must not be served under one: the cached sort-merge plan's sort
// scratch cannot spill and would fail the query with ErrMemory. Same
// System, same SQL, before and after SetLimits.
func TestCacheKeySeparatesByteBudget(t *testing.T) {
	sys := cacheTestSystem(t)
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	free, err := sys.Query(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if got := free.Estimate.JoinMethods; len(got) != 1 || got[0] != "SM" {
		t.Fatalf("unbudgeted plan uses %v; the test needs a cached sort-merge plan", got)
	}
	sys.SetLimits(Limits{MaxMemory: 4096})
	budgeted, err := sys.Query(sql, AlgorithmELS)
	if err != nil {
		t.Fatalf("budgeted run after an unbudgeted one: %v", err)
	}
	if got := budgeted.Estimate.JoinMethods; len(got) != 1 || got[0] != "HASH" {
		t.Fatalf("budgeted plan uses %v, want the spillable hash join", got)
	}
	if budgeted.Count != free.Count {
		t.Fatalf("budgeted count %d vs unbudgeted %d", budgeted.Count, free.Count)
	}
	// Dropping the budget finds the sort-merge entry still cached.
	sys.SetLimits(Limits{})
	hits := sys.CacheStats().Hits
	if _, err := sys.Query(sql, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	if sys.CacheStats().Hits != hits+1 {
		t.Fatal("the unbudgeted entry was not reused after the budget was lifted")
	}
}

// hotEstimateSQL is a 5-table statement with a local predicate and an
// OR-group; hotEstimateSystem declares the statistics it binds against.
const hotEstimateSQL = "SELECT COUNT(*) FROM orders o, lineitem l, customer c, nation n, region r " +
	"WHERE o.okey = l.okey AND o.ckey = c.ckey AND c.nkey = n.nkey AND n.rkey = r.rkey " +
	"AND l.qty < 25 AND (r.name = 1 OR r.name = 2)"

func hotEstimateSystem() *System {
	sys := New()
	sys.MustDeclareStats("orders", 1e5, map[string]float64{"okey": 1e5, "ckey": 1e4})
	sys.MustDeclareStats("lineitem", 4e5, map[string]float64{"okey": 1e5, "qty": 50})
	sys.MustDeclareStats("customer", 1e4, map[string]float64{"ckey": 1e4, "nkey": 25})
	sys.MustDeclareStats("nation", 25, map[string]float64{"nkey": 25, "rkey": 5})
	sys.MustDeclareStats("region", 5, map[string]float64{"rkey": 5, "name": 5})
	return sys
}

// An identical-text hit does not reach the front end: what is left is
// admission, the governor, the text lookup and the copy of the cached
// estimate (5 objects when this was written; 111 while every hit ran lex +
// parse + bind + Canonical first).
func TestHotEstimateAllocationCeiling(t *testing.T) {
	sys := hotEstimateSystem()
	if _, err := sys.Estimate(hotEstimateSQL, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sys.Estimate(hotEstimateSQL, AlgorithmELS); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("an identical-text hit allocates %.0f objects, ceiling 8", allocs)
	}
	if st := sys.CacheStats(); st.TextHits != st.Hits || st.Misses != 1 {
		t.Fatalf("the repeats were not all text hits: %+v", st)
	}
}

// textRoute asserts how the last call moved the cache counters: the route a
// statement took is what these tests are about.
type textRoute struct {
	t    *testing.T
	sys  *System
	last CacheStats
}

func (r *textRoute) expect(what string, hits, textHits, misses uint64) {
	r.t.Helper()
	st := r.sys.CacheStats()
	if st.Hits-r.last.Hits != hits || st.TextHits-r.last.TextHits != textHits || st.Misses-r.last.Misses != misses {
		r.t.Fatalf("%s: hits/text-hits/misses moved by %d/%d/%d, want %d/%d/%d", what,
			st.Hits-r.last.Hits, st.TextHits-r.last.TextHits, st.Misses-r.last.Misses, hits, textHits, misses)
	}
	r.last = st
}

// TestCacheKeySeparatesByteBudget through the text route: the text's alias
// is warm when the budget arrives, and must not be what the budgeted query
// finds — nor the budgeted alias what the unbudgeted one finds afterwards.
func TestTextHitSeparatesByteBudget(t *testing.T) {
	sys := cacheTestSystem(t)
	route := &textRoute{t: t, sys: sys}
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	methods := func(what string, want string) {
		t.Helper()
		res, err := sys.Query(sql, AlgorithmELS)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := res.Estimate.JoinMethods; len(got) != 1 || got[0] != want {
			t.Fatalf("%s: plan uses %v, want %s", what, got, want)
		}
	}
	methods("first sight", "SM")
	route.expect("first sight", 0, 0, 1)
	methods("repeat", "SM")
	route.expect("repeat", 1, 1, 0)
	sys.SetLimits(Limits{MaxMemory: 4096})
	methods("same text, budgeted", "HASH")
	route.expect("same text, budgeted", 0, 0, 1)
	methods("budgeted repeat", "HASH")
	route.expect("budgeted repeat", 1, 1, 0)
	sys.SetLimits(Limits{})
	methods("budget lifted", "SM")
	route.expect("budget lifted", 1, 1, 0)
}

// TestCacheOrderSuffix through the text route: a forced order is not part of
// the text, so EstimateOrder never looks a text up and never registers one —
// the best-plan alias of the same text is neither served to it nor replaced
// by it.
func TestTextHitNeverServesAForcedOrder(t *testing.T) {
	sys := cacheTestSystem(t)
	route := &textRoute{t: t, sys: sys}
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	best, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	route.expect("first sight", 0, 0, 1)
	// Force the order the optimizer did not choose.
	forced := []string{best.JoinOrder[1], best.JoinOrder[0]}
	for i, want := range []struct{ hits, misses uint64 }{{0, 1}, {1, 0}} {
		est, err := sys.EstimateOrder(sql, AlgorithmELS, forced)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(est.JoinOrder, forced) {
			t.Fatalf("forced order %v was served join order %v", forced, est.JoinOrder)
		}
		route.expect(fmt.Sprint("forced order, issue ", i+1), want.hits, 0, want.misses)
	}
	again, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	route.expect("best plan again", 1, 1, 0)
	if !reflect.DeepEqual(again, best) {
		t.Fatalf("the text hit after forced orders differs:\nfirst %+v\nagain %+v", best, again)
	}
}

// TestCacheInvalidationOnPublish through the text route: the alias is warm
// when the statistics change, and the same text must be re-bound and
// re-planned at the new version, then hit by text there.
func TestTextHitNeverCrossesAVersion(t *testing.T) {
	sys := New()
	route := &textRoute{t: t, sys: sys}
	const sql = "SELECT COUNT(*) FROM V"
	size := func(want float64) {
		t.Helper()
		est, err := sys.Estimate(sql, AlgorithmELS)
		if err != nil {
			t.Fatal(err)
		}
		if est.FinalSize != want || est.CatalogVersion != sys.CatalogVersion() {
			t.Fatalf("estimate %g at version %d, want %g at version %d (stale text hit?)",
				est.FinalSize, est.CatalogVersion, want, sys.CatalogVersion())
		}
	}
	sys.MustDeclareStats("V", 1000, map[string]float64{"x": 10})
	size(1000)
	size(1000)
	route.expect("two issues at the first version", 1, 1, 1)
	sys.MustDeclareStats("V", 2000, map[string]float64{"x": 10})
	size(2000)
	route.expect("same text after the publish", 0, 0, 1)
	size(2000)
	route.expect("repeat at the new version", 1, 1, 0)
	if st := sys.CacheStats(); st.Entries != 1 || st.Invalidations != 1 {
		t.Fatalf("the superseded entry should be gone, alias and all: %+v", st)
	}
}

// TestCacheDisable through the text route: switching the cache off with a
// warm alias in it serves nothing from it and counts nothing.
func TestTextHitRespectsDisableCache(t *testing.T) {
	sys := cacheTestSystem(t)
	route := &textRoute{t: t, sys: sys}
	const sql = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	warm, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Estimate(sql, AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	route.expect("two issues", 1, 1, 1)
	sys.SetLimits(Limits{DisableCache: true})
	off, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	route.expect("cache off", 0, 0, 0)
	if !reflect.DeepEqual(off, warm) {
		t.Fatalf("estimates differ with the cache off:\ncached %+v\noff    %+v", warm, off)
	}
}
