package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cardest"
	"repro/internal/closure"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/governor"
)

// Options configures the optimizer.
type Options struct {
	// Methods lists the join methods the optimizer may choose. Empty means
	// the paper's repertoire: nested loops and sort-merge.
	Methods []JoinMethod
	// Model is the cost model; nil selects cost.DefaultModel.
	Model *cost.Model
	// DisableCartesian forbids cartesian products even when no connected
	// extension exists (the query would then fail to plan).
	DisableCartesian bool
	// Governor, when non-nil, bounds plan enumeration: every candidate set
	// built charges the plan budget, and search loops poll cancellation.
	Governor *governor.Governor
	// Workers is accepted and ignored: the search runs on the calling
	// goroutine.
	//
	// Deprecated: kept only because the frozen bench/ sets it.
	Workers int
}

// PaperOptions returns the configuration of the Section 8 experiment:
// nested loops + sort-merge, default cost model.
func PaperOptions() Options {
	return Options{Methods: []JoinMethod{NestedLoop, SortMerge}}
}

// Optimizer plans one query using a cardinality estimator. The estimator
// fixes both the statistics view (raw vs effective) and the selectivity
// rule, so different estimation algorithms yield different plans.
type Optimizer struct {
	est     *cardest.Estimator
	model   *cost.Model
	methods []JoinMethod
	opts    Options
	gov     *governor.Governor
	aliases []string
}

// New creates an optimizer over the estimator's query.
func New(est *cardest.Estimator, opts Options) (*Optimizer, error) {
	if est == nil {
		return nil, fmt.Errorf("optimizer: nil estimator")
	}
	methods := opts.Methods
	if len(methods) == 0 {
		methods = []JoinMethod{NestedLoop, SortMerge}
	}
	model := opts.Model
	if model == nil {
		model = cost.DefaultModel()
	}
	o := &Optimizer{est: est, model: model, methods: methods, opts: opts, gov: opts.Governor}
	for _, tr := range est.Tables() {
		o.aliases = append(o.aliases, tr.Name())
	}
	if len(o.aliases) > 24 {
		return nil, fmt.Errorf("optimizer: %d tables exceed the DP limit of 24", len(o.aliases))
	}
	return o, nil
}

// Estimator returns the estimator the optimizer plans with.
func (o *Optimizer) Estimator() *cardest.Estimator { return o.est }

// scan builds the leaf plan for one table.
func (o *Optimizer) scan(alias string) (*Scan, error) {
	eff, err := o.est.Effective(alias)
	if err != nil {
		return nil, err
	}
	base, err := o.est.BaseStats(alias)
	if err != nil {
		return nil, err
	}
	filter := closure.LocalPredicatesOf(o.est.Predicates(), alias)
	s := &Scan{
		Alias:    alias,
		Table:    baseTableName(o.est, alias),
		Filter:   filter,
		FilterOr: expr.DisjunctionsOf(o.est.Disjunctions(), alias),
		Rows:     eff.Card,
		BaseRows: base.Card,
		RowWidth: base.RowWidth,
	}
	s.ScanCost = o.model.ScanCost(s.BaseRows, s.RowWidth)
	return s, nil
}

func baseTableName(est *cardest.Estimator, alias string) string {
	for _, tr := range est.Tables() {
		if strings.EqualFold(tr.Name(), alias) {
			return tr.Table
		}
	}
	return alias
}

// joinCandidates builds one Join node per applicable method for extending
// plan left with table next, whose estimated step is step, and returns them
// (cheapest first). Each call charges one unit of the plan-enumeration
// budget.
func (o *Optimizer) joinCandidates(left Plan, next *Scan, step cardest.StepResult) ([]*Join, error) {
	if err := o.gov.TickPlans(1); err != nil {
		return nil, err
	}
	eligible := step.Eligible
	hasEquality := false
	for _, p := range eligible {
		if p.Op == expr.OpEQ {
			hasEquality = true
			break
		}
	}
	var out []*Join
	for _, m := range o.methods {
		var c float64
		var indexColumn string
		switch m {
		case NestedLoop:
			// The inner base scan is re-executed per outer row (Starburst
			// pipelined semantics; this is what makes underestimated outers
			// catastrophic).
			c = o.model.NestedLoopCost(left.Cost(), left.EstRows(), next.ScanCost)
		case SortMerge:
			if !hasEquality {
				continue
			}
			c = o.model.SortMergeCost(left.Cost(), next.ScanCost, left.EstRows(), next.EstRows(),
				left.Width(), next.Width())
		case HashJoin:
			if !hasEquality {
				continue
			}
			c = o.model.HashJoinCost(left.Cost(), next.ScanCost, left.EstRows(), next.EstRows())
		case IndexNL:
			col, ok := o.indexableColumn(next, eligible)
			if !ok {
				continue
			}
			indexColumn = col
			matches := o.expectedMatches(next, col)
			c = o.model.IndexNLCost(left.Cost(), left.EstRows(), next.BaseRows, matches)
		default:
			continue
		}
		out = append(out, &Join{
			Left: left, Right: next, Method: m,
			Preds: eligible, Rows: step.Size, PlanCost: c, Step: step,
			IndexColumn: indexColumn,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("optimizer: no applicable join method for %s", next.Alias)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PlanCost < out[j].PlanCost })
	return out, nil
}

// indexableColumn returns the inner-side column of an eligible equality
// predicate for which the inner base table carries an index, if any.
func (o *Optimizer) indexableColumn(next *Scan, eligible []expr.Predicate) (string, bool) {
	cat := o.est.Catalog()
	if cat == nil {
		return "", false
	}
	for _, p := range eligible {
		if p.Op != expr.OpEQ {
			continue
		}
		var col string
		switch {
		case strings.EqualFold(p.Left.Table, next.Alias):
			col = p.Left.Column
		case strings.EqualFold(p.Right.Table, next.Alias):
			col = p.Right.Column
		default:
			continue
		}
		if cat.HasIndex(next.Table, col) {
			return col, true
		}
	}
	return "", false
}

// expectedMatches estimates how many inner rows one index probe returns:
// ‖inner‖ / d(column), using the raw statistics (the index covers the
// unfiltered base table).
func (o *Optimizer) expectedMatches(next *Scan, column string) float64 {
	base, err := o.est.BaseStats(next.Alias)
	if err != nil {
		return 1
	}
	cs := base.Column(column)
	if cs == nil || cs.Distinct <= 0 {
		return 1
	}
	return base.Card / cs.Distinct
}

// BestPlan runs left-deep dynamic programming over connected subsets and
// returns the cheapest complete plan.
//
// Reached subsets are visited in increasing popcount, and in mask order
// within a popcount; each extends into the next level under a strict cost
// comparison, so of two equally cheap plans for a subset the one reached
// from the earlier mask wins.
func (o *Optimizer) BestPlan() (Plan, error) {
	n := len(o.aliases)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: no tables")
	}
	scans := make([]*Scan, n)
	for i, a := range o.aliases {
		s, err := o.scan(a)
		if err != nil {
			return nil, err
		}
		scans[i] = s
	}
	if n == 1 {
		return scans[0], nil
	}

	// Only subsets some plan has reached are visited, so the search does
	// work in proportion to the plans it builds, not to 2ⁿ.
	best := make(map[uint32]Plan, n)
	level := make([]uint32, n)
	for i := 0; i < n; i++ {
		best[1<<i] = scans[i]
		level[i] = 1 << i
	}
	steps := make([]cardest.StepResult, n)
	for size := 1; size < n; size++ {
		slices.Sort(level)
		var reached []uint32
		for _, mask := range level {
			if err := o.gov.Err(); err != nil {
				return nil, err
			}
			left := best[mask]
			// Prefer connected extensions; fall back to cartesian products
			// only if no table connects to this subset.
			connected := make([]int, 0, n)
			disconnected := make([]int, 0, n)
			for t := 0; t < n; t++ {
				if mask&(1<<t) != 0 {
					continue
				}
				step, err := o.est.JoinStep(left.EstRows(), left.Tables(), o.aliases[t])
				if err != nil {
					return nil, err
				}
				steps[t] = step
				if step.Cartesian {
					disconnected = append(disconnected, t)
				} else {
					connected = append(connected, t)
				}
			}
			ext := connected
			if len(ext) == 0 {
				if o.opts.DisableCartesian {
					continue
				}
				ext = disconnected
			}
			for _, t := range ext {
				cands, err := o.joinCandidates(left, scans[t], steps[t])
				if err != nil {
					return nil, err
				}
				newMask := mask | 1<<t
				cur, ok := best[newMask]
				if !ok {
					reached = append(reached, newMask)
				}
				if !ok || cands[0].PlanCost < cur.Cost() {
					best[newMask] = cands[0]
				}
			}
		}
		level = reached
	}
	full := uint32(1<<n) - 1
	plan, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("optimizer: query is disconnected and cartesian products are disabled")
	}
	return plan, nil
}

// PlanForOrder builds the cheapest left-deep plan that follows the given
// table order exactly, choosing the best join method at each step. Used to
// evaluate externally fixed join orders (e.g. reproducing a specific row of
// the paper's table).
func (o *Optimizer) PlanForOrder(order []string) (Plan, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("optimizer: empty order")
	}
	plan, err := o.scan(order[0])
	if err != nil {
		return nil, err
	}
	var cur Plan = plan
	for _, alias := range order[1:] {
		s, err := o.scan(alias)
		if err != nil {
			return nil, err
		}
		step, err := o.est.JoinStep(cur.EstRows(), cur.Tables(), s.Alias)
		if err != nil {
			return nil, err
		}
		cands, err := o.joinCandidates(cur, s, step)
		if err != nil {
			return nil, err
		}
		cur = cands[0]
	}
	return cur, nil
}
