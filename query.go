package els

import (
	"context"
	"fmt"
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
// sort-merge), extended with index nested-loops when the user has built
// any index in the pinned catalog, governed by the query's resource
// governor.
//
// Under a byte budget (Limits.MaxMemory) sort-merge is swapped for the
// hash join: sort-merge's sort scratch must fit in memory outright (its
// GrabBytes fails the query when it cannot), while the hash join's build
// side degrades to in-memory partitioning and completes under any budget.
// An unbudgeted system keeps the paper repertoire exactly, so existing
// plans, counters, and explain output are untouched.
func optimizerOptions(cat *catalog.Catalog, gov *governor.Governor) optimizer.Options {
	opts := optimizer.PaperOptions()
	if gov.MemoryEnforced() {
		opts.Methods = []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.HashJoin}
	}
	if cat.HasAnyIndex() {
		opts.Methods = append(opts.Methods, optimizer.IndexNL)
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
// The cache key is (canonical normalized query [+ byte-budget marker],
// algorithm, pinned catalog version): semantically identical query texts
// planned from the same join repertoire share an entry, and an
// entry can only ever be served against the exact catalog version it was
// planned on. A hit skips estimation and plan enumeration entirely — no
// plans are charged against Limits.MaxPlans.
//
// The same entries are also found by the statement's text (plancache.TextKey:
// raw text, algorithm, pinned version, byte-budget marker), and that lookup
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
	budgeted := gov.MemoryEnforced()
	byText := cache != nil && len(order) == 0
	tk := plancache.TextKey{Text: sql, Algo: int(algo), Version: snap.Version(), Budgeted: budgeted}
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
		key = plancache.Key{Query: cacheQueryText(q, order, budgeted), Algo: tk.Algo, Version: tk.Version}
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
	opt, err := optimizer.New(cest, optimizerOptions(cat, gov))
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
// normalized query, plus a marker when the query runs under a byte budget
// — optimizerOptions swaps sort-merge for the spillable hash join then, so
// a plan chosen without a budget must not be served under one — plus a
// length-prefixed forced-order suffix when the caller pinned a join order.
func cacheQueryText(q *sqlparse.Query, order []string, budgeted bool) string {
	norm := plancache.Canonical(q)
	if len(order) == 0 && !budgeted {
		return norm
	}
	var b strings.Builder
	b.WriteString(norm)
	if budgeted {
		b.WriteString("budgeted\n")
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

// estimateWorkingBytes sizes the estimate-informed memory reservation for
// a plan under Limits.MaxMemory. For every hash join in the plan the build
// (right) side is materialized at roughly EstRows × Width columns × 16
// bytes (the storage byte model's string base footprint; integers cost
// half that, so this over- rather than under-reserves); the reservation is
// the largest such build doubled as a safety factor. The governor compares
// each actual build size against this figure (Governor.ShouldSpill), so a
// join whose true input dwarfs its estimate spills at build time instead
// of discovering the budget cliff mid-probe. The figure is a pure function
// of the plan — identical across engines — which keeps spill decisions
// deterministic.
func estimateWorkingBytes(plan optimizer.Plan) int64 {
	var worst float64
	for j, ok := plan.(*optimizer.Join); ok; j, ok = j.Left.(*optimizer.Join) {
		if b := j.Right.Rows * float64(16*j.Right.RowWidth); j.Method == optimizer.HashJoin && b > worst {
			worst = b
		}
	}
	worst *= 2 // safety factor against modest underestimates
	if worst > float64(1<<55) {
		worst = float64(1 << 55)
	}
	return int64(worst)
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
	for _, ref := range q.GroupBy {
		eff, err := opt.Estimator().Effective(ref.Table)
		if err != nil {
			continue
		}
		if d, err := eff.ColumnCard(ref.Column); err == nil && d > 0 {
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
	var est *Estimate
	err := s.serve(ctx, func(gov *governor.Governor, snap *snapshot.Snapshot) error {
		_, _, got, err := s.planFor(gov, snap, sql, algo, nil)
		if err != nil {
			return err
		}
		est = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	return est, nil
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
	var est *Estimate
	err := s.serve(ctx, func(gov *governor.Governor, snap *snapshot.Snapshot) error {
		_, _, got, err := s.planFor(gov, snap, sql, algo, order)
		if err != nil {
			return err
		}
		est = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	return est, nil
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
	var out string
	err := s.serve(ctx, func(gov *governor.Governor, snap *snapshot.Snapshot) error {
		_, _, est, err := s.planFor(gov, snap, sql, algo, nil)
		if err != nil {
			return err
		}
		out = formatExplain(est)
		return nil
	})
	if err != nil {
		return "", err
	}
	return out, nil
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
	var out string
	err := s.serve(ctx, func(gov *governor.Governor, snap *snapshot.Snapshot) error {
		_, plan, _, err := s.planFor(gov, snap, sql, algo, nil)
		if err != nil {
			return err
		}
		out = optimizer.FormatDot(plan)
		return nil
	})
	if err != nil {
		return "", err
	}
	return out, nil
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
	exec := executor.NewGoverned(snap.Catalog(), gov)
	if gov.MemoryEnforced() {
		// Estimate-informed pre-reservation: size the working-memory
		// reservation from the optimizer's own cardinality estimates so a
		// wildly underestimated join trips ShouldSpill at build time —
		// before the build is resident — rather than at the budget cliff.
		gov.ReserveBytes(estimateWorkingBytes(plan))
	}
	res, err := exec.Execute(plan)
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
	s.noteMemory(out.PeakMemoryBytes, out.SpillCount, out.SpilledBytes)
	for _, n := range res.Nodes {
		out.Nodes = append(out.Nodes, NodeStat{
			Node: n.Node, Depth: n.Depth, EstimatedRows: n.EstRows, ActualRows: n.ActualRows,
		})
	}
	if len(q.Select) > 0 {
		return s.aggregateResult(q, exec, res, out)
	}
	if !q.CountStar {
		// Materialize (a cap of) the projected rows.
		schema := res.Table.Schema()
		cols := make([]int, 0, schema.NumColumns())
		if q.Star {
			for i := 0; i < schema.NumColumns(); i++ {
				cols = append(cols, i)
				out.Columns = append(out.Columns, schema.Column(i).Name)
			}
		} else {
			for _, ref := range q.Projection {
				idx := schema.ColumnIndex(ref.Table + "." + ref.Column)
				if idx < 0 {
					return nil, fmt.Errorf("%w: column %s has no loaded data", ErrParse, ref)
				}
				cols = append(cols, idx)
				out.Columns = append(out.Columns, ref.String())
			}
		}
		n := res.Table.NumRows()
		if n > MaxRows {
			n = MaxRows
		}
		for r := 0; r < n; r++ {
			row := make([]string, len(cols))
			for i, c := range cols {
				row[i] = res.Table.Value(r, c).String()
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
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

// aggregateResult applies the query's GROUP BY and aggregate select list
// to the executed join result and renders the grouped rows.
func (s *System) aggregateResult(q *sqlparse.Query, exec *executor.Executor, res *executor.Result, out *Result) (*Result, error) {
	schema := res.Table.Schema()
	colIdx := func(ref string) (int, error) {
		idx := schema.ColumnIndex(ref)
		if idx < 0 {
			return 0, fmt.Errorf("%w: column %s has no loaded data", ErrParse, ref)
		}
		return idx, nil
	}
	groupCols := make([]int, len(q.GroupBy))
	for i, ref := range q.GroupBy {
		idx, err := colIdx(ref.Table + "." + ref.Column)
		if err != nil {
			return nil, err
		}
		groupCols[i] = idx
	}
	// Build the aggregate specs and remember how to lay out the output in
	// select-list order: plain items read group columns, aggregate items
	// read the aggregate outputs.
	var aggs []executor.AggSpec
	layout := make([]int, len(q.Select)) // output ordinal in the Aggregate() table
	for i, item := range q.Select {
		if item.Agg == sqlparse.AggNone {
			pos := -1
			for gi, g := range q.GroupBy {
				if g.SameAs(item.Col) {
					pos = gi
					break
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("%w: column %s must appear in GROUP BY", ErrParse, item.Col)
			}
			layout[i] = pos
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
			return nil, fmt.Errorf("%w: unsupported aggregate %v", ErrParse, item.Agg)
		}
		if !item.Star {
			idx, err := colIdx(item.Col.Table + "." + item.Col.Column)
			if err != nil {
				return nil, err
			}
			spec.Col = idx
		}
		layout[i] = len(q.GroupBy) + len(aggs)
		aggs = append(aggs, spec)
	}
	grouped, err := exec.Aggregate(res.Table, groupCols, aggs)
	if err != nil {
		return nil, err
	}
	out.Count = int64(grouped.NumRows())
	out.Columns = make([]string, len(q.Select))
	for i, item := range q.Select {
		out.Columns[i] = item.String()
	}
	n := grouped.NumRows()
	if n > MaxRows {
		n = MaxRows
	}
	for r := 0; r < n; r++ {
		row := make([]string, len(q.Select))
		for i, src := range layout {
			row[i] = grouped.Value(r, src).String()
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
