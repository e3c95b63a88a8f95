package els

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/selest"
	"repro/internal/snapshot"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// StepEstimate describes one incremental join step of a plan's estimate.
type StepEstimate struct {
	// Table is the alias joined at this step.
	Table string
	// Size is the estimated result size after the step.
	Size float64
	// Selectivity is the combined join selectivity applied.
	Selectivity float64
	// Cartesian marks steps with no eligible join predicate.
	Cartesian bool
	// EligiblePredicates renders the join predicates considered.
	EligiblePredicates []string
}

// Estimate is the outcome of estimating (and planning) a query.
type Estimate struct {
	// Algorithm is the estimation algorithm used.
	Algorithm Algorithm
	// JoinOrder is the chosen left-deep base-table order.
	JoinOrder []string
	// JoinMethods are the physical methods along the plan, innermost first.
	JoinMethods []string
	// Steps are the estimated sizes after each join, innermost first.
	Steps []StepEstimate
	// FinalSize is the estimated result size of the whole query.
	FinalSize float64
	// Cost is the optimizer's cost of the chosen plan.
	Cost float64
	// PlanText is the formatted plan tree.
	PlanText string
	// ImpliedPredicates renders the predicates added by transitive closure
	// (empty for algorithms that do not close).
	ImpliedPredicates []string
	// GroupEstimate is the estimated number of groups for GROUP BY queries
	// (the product of the grouping columns' effective cardinalities, capped
	// by the join size estimate); 0 for ungrouped queries.
	GroupEstimate float64
	// Warnings lists statistics repairs the estimator applied when catalog
	// statistics were corrupt (NaN, negative, zero cardinalities degraded
	// to paper defaults). Empty for healthy catalogs.
	Warnings []string
	// CatalogVersion is the catalog snapshot version the query pinned at
	// admission. All statistics the estimate read come from exactly this
	// published version, even if the catalog was mutated while the query
	// ran.
	CatalogVersion uint64
	// Replica reports that the estimate was served by a read replica
	// (els.OpenReplica) rather than the primary.
	Replica bool
	// ReplicaLag is how many catalog versions the replica's pinned
	// snapshot trailed the primary's last acknowledged version when the
	// result was produced; 0 on a primary or a fully caught-up replica.
	// Reads lagging past Limits.MaxReplicaLag never produce a result at
	// all — they fail with ErrStaleReplica.
	ReplicaLag uint64
}

// NodeStat compares one plan node's estimated and actual output
// cardinality (EXPLAIN ANALYZE data).
type NodeStat struct {
	// Node is the node's one-line plan description.
	Node string
	// Depth is the node's depth in the plan tree.
	Depth int
	// EstimatedRows is the optimizer's estimate.
	EstimatedRows float64
	// ActualRows is what execution produced; -1 for nodes that are never
	// materialized (the re-scanned inner of a nested-loops join).
	ActualRows int64
}

// Result is the outcome of executing a query.
type Result struct {
	// Estimate carries the plan and its estimates.
	Estimate *Estimate
	// Count is the number of result rows (the COUNT(*) value).
	Count int64
	// Columns are the output column names (empty for COUNT(*) queries the
	// caller only counts).
	Columns []string
	// Rows holds the materialized output rendered as strings, capped at
	// MaxRows by Query.
	Rows [][]string
	// TuplesScanned and Comparisons are deterministic work counters.
	TuplesScanned, Comparisons int64
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// Nodes holds per-node estimated-vs-actual cardinalities (EXPLAIN
	// ANALYZE), root-first.
	Nodes []NodeStat
	// MaxQError is the worst estimate in Nodes: the largest q-error,
	// max(est/actual, actual/est) with both floored at one row, over the
	// nodes that were materialized. 1 means every estimate was exact.
	MaxQError float64
	// PeakMemoryBytes is the high-water mark of the query's byte ledger:
	// the most working memory (operator outputs, hash-table build sides,
	// columnar arenas, partition routing state) the query had charged at any
	// instant.
	// Tracked whether or not Limits.MaxMemory was set.
	PeakMemoryBytes int64
	// SpillCount and SpilledBytes report how many partitioning passes the
	// query's hash joins ran because a build side exceeded its byte budget
	// or reservation, and how many build-side bytes those passes routed to
	// partitions. Partitioning is in memory; both are 0 for queries whose
	// joins each ran as one partition.
	SpillCount, SpilledBytes int64
}

// qError is the q-error of one estimate, as the benchmark (bench/) scores
// it: max(est/actual, actual/est), both floored at one row so an exact zero
// on either side stays finite.
func qError(est, actual float64) float64 {
	est, actual = math.Max(est, 1), math.Max(actual, 1)
	return math.Max(est/actual, actual/est)
}

// FormatAnalyze renders the per-node estimate-vs-actual report.
func (r *Result) FormatAnalyze() string {
	var b strings.Builder
	for _, n := range r.Nodes {
		actual := "(not materialized)"
		if n.ActualRows >= 0 {
			actual = fmt.Sprintf("actual=%d", n.ActualRows)
		}
		fmt.Fprintf(&b, "%s%s  est=%.6g %s\n", strings.Repeat("  ", n.Depth), n.Node, n.EstimatedRows, actual)
	}
	return b.String()
}

// MaxRows caps the number of materialized rows Query copies into a Result.
const MaxRows = 1000

// optimizerOptions returns the paper repertoire (nested loops +
// sort-merge), governed by the query's resource governor.
//
// Under a byte budget (Limits.MaxMemory) sort-merge is swapped for the
// hash join: sort-merge's sort scratch must fit in memory outright (its
// GrabBytes fails the query when it cannot), while the hash join's build
// side degrades to in-memory partitioning and completes under any budget.
// An unbudgeted system keeps the paper repertoire exactly, so existing
// plans, counters, and explain output are untouched.
func optimizerOptions(gov *governor.Governor) optimizer.Options {
	opts := optimizer.PaperOptions()
	if gov.MemoryEnforced() {
		opts.Methods = []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.HashJoin}
	}
	opts.Governor = gov
	return opts
}

// cachedPlan is one plan-cache entry: the optimized (immutable) plan tree
// and a fully built estimate template. Hits copy the template by value, so
// per-serve stamping (replica lag) never leaks between callers or back
// into the cache.
type cachedPlan struct {
	plan optimizer.Plan
	est  Estimate
}

// estimate returns the hit's own copy of the template.
func (cp *cachedPlan) estimate() *Estimate {
	est := cp.est
	return &est
}

// planFor parses, binds, plans, and estimates sql under algo against the
// pinned snapshot, consulting the system's plan cache first. A non-empty
// order forces the join order (EstimateOrder) and is folded into the cache
// key, so forced-order estimates cache independently of best-plan ones.
//
// The cache key is (canonical normalized query [+ byte budget],
// algorithm, pinned catalog version): semantically identical query texts
// planned from the same join repertoire share an entry, and an
// entry can only ever be served against the exact catalog version it was
// planned on. A hit skips estimation and plan enumeration entirely — no
// plans are charged against Limits.MaxPlans.
//
// The same entries are also found by the statement's text (plancache.TextKey:
// raw text, algorithm, pinned version, byte budget), and that lookup
// comes first: a text seen before at this version returns its bound query
// and its entry without lexing, parsing, binding or canonicalising. This is
// exact, not heuristic — parsing is a function of the text and binding of
// the text and the pinned catalog, so the stored bound query is the one
// ParseAndBind would build again. Any other text takes the canonical route
// and is then registered as an alias of the entry it hit or put. Forced
// orders bypass the text lookup (the order is not part of the text).
// Failed preparations are never cached. Limits.DisableCache bypasses the
// cache wholesale.
func (s *System) planFor(gov *governor.Governor, snap *snapshot.Snapshot, sql string, algo Algorithm, order []string) (*sqlparse.Query, optimizer.Plan, *Estimate, error) {
	cfg, err := algo.config()
	if err != nil {
		return nil, nil, nil, err
	}
	cache := s.cache
	if cache == nil || s.Limits().DisableCache {
		cache = nil
	}
	budget := gov.MaxMemory()
	byText := cache != nil && len(order) == 0
	tk := plancache.TextKey{Text: sql, Algo: int(algo), Version: snap.Version(), Budget: budget}
	if byText {
		if v, bound, ok := cache.GetText(tk); ok {
			cp := v.(*cachedPlan)
			return bound.(*sqlparse.Query), cp.plan, cp.estimate(), nil
		}
	}
	cat := snap.Catalog()
	q, err := sqlparse.ParseAndBind(sql, cat)
	if err != nil {
		return nil, nil, nil, wrapParse(err)
	}
	var key plancache.Key
	if cache != nil {
		key = plancache.Key{Query: cacheQueryText(q, order, budget), Algo: tk.Algo, Version: tk.Version}
		if v, ok := cache.Get(key); ok {
			if byText {
				cache.Alias(tk, key, q)
			}
			cp := v.(*cachedPlan)
			return q, cp.plan, cp.estimate(), nil
		}
	}
	tabs := make([]cardest.TableRef, len(q.Tables))
	for i, item := range q.Tables {
		tabs[i] = cardest.TableRef{Alias: item.Alias, Table: item.Table}
	}
	cest, err := cardest.NewQuery(cat, tabs, q.Where, q.Disjunctions, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	opt, err := optimizer.New(cest, optimizerOptions(gov))
	if err != nil {
		return nil, nil, nil, err
	}
	var plan optimizer.Plan
	if len(order) > 0 {
		plan, err = opt.PlanForOrder(order)
	} else {
		plan, err = opt.BestPlan()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	est := buildEstimate(algo, plan, opt)
	est.CatalogVersion = snap.Version()
	est.GroupEstimate = estimateGroups(q, plan, opt)
	if cache != nil {
		cp := &cachedPlan{plan: plan, est: *est}
		cache.Put(key, cp)
		if byText {
			cache.Alias(tk, key, q)
		}
		// Record the new cache entry against this query's byte ledger so
		// plan-cache pressure is visible in PeakMemoryBytes, then release
		// immediately: the entry's ownership transfers to the cache (whose
		// size is bounded by Limits.PlanCacheSize, not per-query memory),
		// and a lingering charge would make spill decisions later in the
		// same query depend on cache hit/miss history — breaking the
		// bit-identity contract between cold- and warm-cache runs.
		n := cachedPlanBytes(cp)
		gov.ChargeBytes(n)
		gov.ReleaseBytes(n)
	}
	return q, plan, est, nil
}

// cachedPlanBytes approximates the footprint of one plan-cache entry: the
// rendered plan text and step strings dominate; the fixed struct overhead
// is a round constant.
func cachedPlanBytes(cp *cachedPlan) int64 {
	n := int64(512) + int64(len(cp.est.PlanText))
	for _, s := range cp.est.Steps {
		n += 64
		for _, p := range s.EligiblePredicates {
			n += int64(len(p))
		}
	}
	for _, p := range cp.est.ImpliedPredicates {
		n += int64(len(p))
	}
	return n
}

// cacheQueryText renders the cache key's query component: the canonical
// normalized query, plus the byte budget when the query runs under one —
// optimizerOptions swaps sort-merge for the spillable hash join then, and
// the optimizer prices a shared hash build only over a table the budget
// fits, so a plan chosen without a budget, or under another, must not be
// served under this one — plus a length-prefixed forced-order suffix when
// the caller pinned a join order.
func cacheQueryText(q *sqlparse.Query, order []string, budget int64) string {
	norm := plancache.Canonical(q)
	if len(order) == 0 && budget == 0 {
		return norm
	}
	var b strings.Builder
	b.WriteString(norm)
	if budget > 0 {
		fmt.Fprintf(&b, "budget:%d\n", budget)
	}
	if len(order) > 0 {
		b.WriteString("order:")
		for _, alias := range order {
			a := strings.ToLower(alias)
			fmt.Fprintf(&b, "%d:%s", len(a), a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func buildEstimate(algo Algorithm, plan optimizer.Plan, opt *optimizer.Optimizer) *Estimate {
	e := &Estimate{
		Algorithm:   algo,
		JoinOrder:   optimizer.JoinOrder(plan),
		JoinMethods: nil,
		FinalSize:   plan.EstRows(),
		Cost:        plan.Cost(),
		PlanText:    optimizer.Format(plan),
	}
	var walk func(optimizer.Plan)
	walk = func(n optimizer.Plan) {
		if j, ok := n.(*optimizer.Join); ok {
			walk(j.Left)
			step := StepEstimate{
				Table:       j.Step.Table,
				Size:        j.Step.Size,
				Selectivity: j.Step.Selectivity,
				Cartesian:   j.Step.Cartesian,
			}
			for _, g := range j.Step.Groups {
				for _, p := range g.Predicates {
					step.EligiblePredicates = append(step.EligiblePredicates, p.String())
				}
			}
			e.Steps = append(e.Steps, step)
			e.JoinMethods = append(e.JoinMethods, j.Method.String())
		}
	}
	walk(plan)
	for _, p := range opt.Estimator().Implied() {
		e.ImpliedPredicates = append(e.ImpliedPredicates, p.String())
	}
	e.Warnings = opt.Estimator().Warnings()
	return e
}

// estimateGroups computes the GROUP BY output-size estimate with the
// paper's own urn model: the candidate group space is the product of the
// grouping columns' effective cardinalities (the d′ values Algorithm ELS
// maintains), and the expected number of non-empty groups among the
// estimated join output of N rows is urn(D, N) — the same formula
// Section 5 uses for surviving distinct values.
func estimateGroups(q *sqlparse.Query, plan optimizer.Plan, opt *optimizer.Optimizer) float64 {
	if len(q.GroupBy) == 0 {
		return 0
	}
	groupSpace := 1.0
	for i, id := range q.GroupByIDs {
		if d, err := opt.Estimator().ColumnCard(id.Table, q.GroupBy[i].Column); err == nil && d > 0 {
			groupSpace *= d
		}
	}
	return selest.UrnDistinctCeil(groupSpace, plan.EstRows())
}

// Estimate parses the query, runs the selected estimation algorithm, plans
// the query, and returns the estimates without executing anything. It works
// on both declared-statistics and loaded tables.
func (s *System) Estimate(sql string, algo Algorithm) (*Estimate, error) {
	return s.EstimateContext(context.Background(), sql, algo) //ctxflow:allow context-less compatibility wrapper
}

// EstimateContext is Estimate governed by a context and the system's
// Limits: cancellation, the wall-clock deadline, and the plan-enumeration
// budget all abort planning with a typed error (ErrCanceled,
// ErrBudgetExceeded). Panics in the pipeline surface as ErrInternal. The
// call is admission-controlled (ErrOverloaded when shed, ErrClosed after
// Close) and estimates against the catalog snapshot pinned at admission.
func (s *System) EstimateContext(ctx context.Context, sql string, algo Algorithm) (*Estimate, error) {
	_, est, err := s.planOnly(ctx, sql, algo, nil)
	return est, err
}

// planOnly is the serve path of every call that plans and executes
// nothing: it plans the query, along order if one is given, under
// governance and admission control against the snapshot pinned at
// admission, and returns the plan and its estimate (both nil on error).
func (s *System) planOnly(ctx context.Context, sql string, algo Algorithm, order []string) (optimizer.Plan, *Estimate, error) {
	var plan optimizer.Plan
	var est *Estimate
	err := s.serve(ctx, func(gov *governor.Governor, snap *snapshot.Snapshot) error {
		var err error
		_, plan, est, err = s.planFor(gov, snap, sql, algo, order)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return plan, est, nil
}

// EstimateOrder estimates the query along a fixed join order (the aliases
// of the FROM clause in the desired sequence), as the paper's worked
// examples do.
func (s *System) EstimateOrder(sql string, algo Algorithm, order []string) (*Estimate, error) {
	return s.EstimateOrderContext(context.Background(), sql, algo, order) //ctxflow:allow context-less compatibility wrapper
}

// EstimateOrderContext is EstimateOrder with governance and admission
// control (see EstimateContext).
func (s *System) EstimateOrderContext(ctx context.Context, sql string, algo Algorithm, order []string) (*Estimate, error) {
	_, est, err := s.planOnly(ctx, sql, algo, order)
	return est, err
}

// Explain returns a human-readable report: implied predicates, the chosen
// plan, and the per-step estimates.
func (s *System) Explain(sql string, algo Algorithm) (string, error) {
	return s.ExplainContext(context.Background(), sql, algo) //ctxflow:allow context-less compatibility wrapper
}

// ExplainContext is Explain with governance and admission control (see
// EstimateContext). The report names the catalog snapshot version the
// estimates were computed against.
func (s *System) ExplainContext(ctx context.Context, sql string, algo Algorithm) (string, error) {
	_, est, err := s.planOnly(ctx, sql, algo, nil)
	if err != nil {
		return "", err
	}
	return formatExplain(est), nil
}

// formatExplain renders the human-readable Explain report for an estimate.
func formatExplain(est *Estimate) string {
	out := fmt.Sprintf("algorithm: %s\n", est.Algorithm)
	out += fmt.Sprintf("catalog version: %d\n", est.CatalogVersion)
	if est.Replica {
		out += fmt.Sprintf("replica lag: %d\n", est.ReplicaLag)
	}
	for _, w := range est.Warnings {
		out += "warning: " + w + "\n"
	}
	if len(est.ImpliedPredicates) > 0 {
		out += "implied by transitive closure:\n"
		for _, p := range est.ImpliedPredicates {
			out += "  " + p + "\n"
		}
	}
	out += "plan:\n" + est.PlanText
	out += fmt.Sprintf("estimated result size: %g (cost %.1f)\n", est.FinalSize, est.Cost)
	return out
}

// ExplainDot plans the query under the algorithm and returns the chosen
// plan as a Graphviz DOT digraph.
func (s *System) ExplainDot(sql string, algo Algorithm) (string, error) {
	return s.ExplainDotContext(context.Background(), sql, algo) //ctxflow:allow context-less compatibility wrapper
}

// ExplainDotContext is ExplainDot with governance and admission control
// (see EstimateContext): plan enumeration is charged to the system's
// Limits and aborts with a typed error on cancellation or an exhausted
// budget, like every other serve path.
func (s *System) ExplainDotContext(ctx context.Context, sql string, algo Algorithm) (string, error) {
	plan, _, err := s.planOnly(ctx, sql, algo, nil)
	if err != nil {
		return "", err
	}
	return optimizer.FormatDot(plan), nil
}

// Query plans and executes the SQL under the selected algorithm. Every
// table and column referenced must have loaded data (LoadTable,
// GenerateTable); one without fails with ErrParse naming it, while Estimate
// still answers from the statistics.
func (s *System) Query(sql string, algo Algorithm) (*Result, error) {
	return s.QueryContext(context.Background(), sql, algo) //ctxflow:allow context-less compatibility wrapper
}

// QueryContext is Query governed by a context and the system's Limits:
// cancelling the context aborts planning and execution inner loops with
// ErrCanceled; an exhausted budget (wall-clock, tuples scanned, rows
// materialized, plans enumerated) aborts with ErrBudgetExceeded. Panics in
// the pipeline surface as ErrInternal instead of crossing the API. The
// call is admission-controlled (ErrOverloaded when shed, ErrClosed after
// Close) and both plans and executes against the single catalog snapshot
// pinned at admission.
func (s *System) QueryContext(ctx context.Context, sql string, algo Algorithm) (*Result, error) {
	var result *Result
	err := s.serve(ctx, func(gov *governor.Governor, snap *snapshot.Snapshot) error {
		res, err := s.queryOn(snap, gov, sql, algo)
		if err != nil {
			return err
		}
		result = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// queryOn runs one plan-and-execute attempt against the pinned snapshot.
func (s *System) queryOn(snap *snapshot.Snapshot, gov *governor.Governor, sql string, algo Algorithm) (*Result, error) {
	q, plan, est, err := s.planFor(gov, snap, sql, algo, nil)
	if err != nil {
		return nil, err
	}
	if err := optimizer.Runnable(plan); err != nil {
		return nil, err
	}
	read, g, err := resultColumns(q, plan, snap.Catalog())
	if err != nil {
		return nil, err
	}
	exec := executor.NewGoverned(snap.Catalog(), gov)
	res, err := exec.ExecuteColumns(plan, read)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Estimate:      est,
		Count:         res.Stats.RowsProduced,
		TuplesScanned: res.Stats.TuplesScanned,
		Comparisons:   res.Stats.Comparisons,
		Elapsed:       res.Stats.Elapsed,
	}
	_, out.PeakMemoryBytes, _ = gov.MemoryUsage()
	out.SpillCount, out.SpilledBytes = gov.SpillStats()
	for _, n := range res.Nodes {
		out.Nodes = append(out.Nodes, NodeStat{
			Node: n.Node, Depth: n.Depth, EstimatedRows: n.EstRows, ActualRows: n.ActualRows,
		})
		if n.ActualRows >= 0 {
			out.MaxQError = max(out.MaxQError, qError(n.EstRows, float64(n.ActualRows)))
		}
	}
	s.noteQuery(out)
	if g != nil {
		return aggregateResult(q, g, exec, res, out)
	}
	if q.CountStar {
		return out, nil
	}
	// Materialize (a cap of) the projected rows.
	if q.Star {
		schema := res.Table.Schema()
		read = make([]int, schema.NumColumns())
		for i := range read {
			read[i] = i
			out.Columns = append(out.Columns, schema.Column(i).Name)
		}
	} else {
		for _, ref := range q.Projection {
			out.Columns = append(out.Columns, ref.String())
		}
	}
	out.Rows = renderRows(res.Table, read)
	return out, nil
}

// renderRows renders columns cols of tbl's first MaxRows rows as
// Value.String text (nil for no rows): every cell a substring of one
// string, every row a capacity-capped slice of one cell array.
func renderRows(tbl *storage.Table, cols []int) [][]string {
	n, w := min(tbl.NumRows(), MaxRows), len(cols)
	if n == 0 {
		return nil
	}
	data := make([]storage.ColumnData, w)
	for i, c := range cols {
		data[i] = tbl.ColumnData(c)
	}
	ends := make([]int, 1, n*w+1) // cell i is text[ends[i]:ends[i+1]]
	buf := make([]byte, 0, 8*n*w)
	for r := range n {
		for _, d := range data {
			buf = d.Value(r).AppendText(buf)
			ends = append(ends, len(buf))
		}
	}
	text, cells, rows := string(buf), make([]string, n*w), make([][]string, n)
	for i := range cells {
		cells[i] = text[ends[i]:ends[i+1]]
	}
	for r := range rows {
		rows[r] = cells[r*w : (r+1)*w : (r+1)*w]
	}
	return rows
}

// CompareAlgorithms estimates and executes the query under every algorithm
// in algos (all algorithms if empty), returning results in order. All
// executions must produce the same count; an inconsistency is an error.
func (s *System) CompareAlgorithms(sql string, algos ...Algorithm) ([]*Result, error) {
	return s.CompareAlgorithmsContext(context.Background(), sql, algos...) //ctxflow:allow context-less compatibility wrapper
}

// CompareAlgorithmsContext is CompareAlgorithms with governance; each
// algorithm's run receives a fresh budget from the system's Limits, while
// cancellation applies to the whole comparison.
func (s *System) CompareAlgorithmsContext(ctx context.Context, sql string, algos ...Algorithm) ([]*Result, error) {
	if len(algos) == 0 {
		algos = []Algorithm{AlgorithmELS, AlgorithmSM, AlgorithmSMPTC, AlgorithmSSS}
	}
	var out []*Result
	for _, a := range algos {
		r, err := s.QueryContext(ctx, sql, a)
		if err != nil {
			return nil, fmt.Errorf("els: %s: %w", a, err)
		}
		if len(out) > 0 && r.Count != out[0].Count {
			return nil, fmt.Errorf("%w: plans disagree: %s counted %d, %s counted %d",
				ErrInternal, algos[0], out[0].Count, a, r.Count)
		}
		out = append(out, r)
	}
	return out, nil
}

// grouping is an aggregate query's GROUP BY and select list over the
// executed join's output ordinals.
type grouping struct {
	cols []int
	aggs []executor.AggSpec
	// layout is each select item's ordinal in the Aggregate output: a
	// plain item reads its group column, an aggregate item its aggregate.
	layout []int
}

// resultColumns resolves what the query's result reads to the plan's output
// ordinals (optimizer.OutputStarts), and so which columns the execution
// must carry: the projection, or for an aggregate query the GROUP BY keys
// and the aggregates' columns, which g then reads. COUNT(*) reads none;
// SELECT * reads every column, which is read nil.
func resultColumns(q *sqlparse.Query, plan optimizer.Plan, cat *catalog.Catalog) (read []int, g *grouping, err error) {
	if q.CountStar {
		return []int{}, nil, nil
	}
	if q.Star && len(q.Select) == 0 {
		return nil, nil, nil
	}
	aliases := make([]string, len(q.Tables))
	for t, item := range q.Tables {
		aliases[t] = item.Name()
	}
	starts := optimizer.OutputStarts(plan, cat, aliases)
	ordinal := func(id sqlparse.ColumnID, ref fmt.Stringer) (int, error) {
		if id.Ord < 0 {
			return 0, fmt.Errorf("%w: column %s has no loaded data", ErrParse, ref)
		}
		read = append(read, starts[id.Table]+id.Ord)
		return read[len(read)-1], nil
	}
	read = []int{}
	if len(q.Select) == 0 {
		for i, ref := range q.Projection {
			if _, err := ordinal(q.ProjectionIDs[i], ref); err != nil {
				return nil, nil, err
			}
		}
		return read, nil, nil
	}
	g = &grouping{cols: make([]int, len(q.GroupBy)), layout: make([]int, len(q.Select))}
	for i, ref := range q.GroupBy {
		if g.cols[i], err = ordinal(q.GroupByIDs[i], ref); err != nil {
			return nil, nil, err
		}
	}
	for i, item := range q.Select {
		if item.Agg == sqlparse.AggNone {
			pos := slices.Index(q.GroupByIDs, item.ID)
			if pos < 0 {
				return nil, nil, fmt.Errorf("%w: column %s must appear in GROUP BY", ErrParse, item.Col)
			}
			g.layout[i] = pos
			continue
		}
		spec := executor.AggSpec{Name: fmt.Sprintf("a%d", i)}
		switch item.Agg {
		case sqlparse.AggCount:
			if item.Star {
				spec.Op = executor.AggCountStar
			} else {
				spec.Op = executor.AggCount
			}
		case sqlparse.AggSum:
			spec.Op = executor.AggSum
		case sqlparse.AggMin:
			spec.Op = executor.AggMin
		case sqlparse.AggMax:
			spec.Op = executor.AggMax
		case sqlparse.AggAvg:
			spec.Op = executor.AggAvg
		default:
			return nil, nil, fmt.Errorf("%w: unsupported aggregate %v", ErrParse, item.Agg)
		}
		if !item.Star {
			if spec.Col, err = ordinal(item.ID, item.Col); err != nil {
				return nil, nil, err
			}
		}
		g.layout[i] = len(q.GroupBy) + len(g.aggs)
		g.aggs = append(g.aggs, spec)
	}
	return read, g, nil
}

// aggregateResult applies the query's GROUP BY and aggregate select list,
// resolved to g, to the executed join result and renders the grouped rows.
func aggregateResult(q *sqlparse.Query, g *grouping, exec *executor.Executor, res *executor.Result, out *Result) (*Result, error) {
	grouped, err := exec.Aggregate(res.Table, g.cols, g.aggs)
	if err != nil {
		return nil, err
	}
	out.Count = int64(grouped.NumRows())
	out.Columns = make([]string, len(q.Select))
	for i, item := range q.Select {
		out.Columns[i] = item.String()
	}
	out.Rows = renderRows(grouped, g.layout)
	return out, nil
}
