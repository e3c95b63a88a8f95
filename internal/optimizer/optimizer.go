package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cardest"
	"repro/internal/cost"
	"repro/internal/eqclass"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/storage"
)

// Options configures the optimizer.
type Options struct {
	// Methods lists the join methods the optimizer may choose. Empty means
	// the paper's repertoire: nested loops and sort-merge.
	Methods []JoinMethod
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

// maxTables bounds the DP: a subset of the query's tables is a 32-bit mask,
// and the reachable subsets of a clique of this many tables already number
// in the millions.
const maxTables = 24

// Optimizer plans one query using a cardinality estimator. The estimator
// fixes both the statistics view (raw vs effective) and the selectivity
// rule, so different estimation algorithms yield different plans.
type Optimizer struct {
	est     *cardest.Estimator
	model   *cost.Model
	methods []JoinMethod
	gov     *governor.Governor
	tables  []table // by the estimator's table number
	// ords holds each column id's ordinal in its table's data schema (-1 if
	// the data lacks it); nil when a table has no data.
	ords []int
}

// table is what planning reads of one query table, resolved once.
type table struct {
	// scan is the table's leaf plan; every plan gets its own copy.
	scan Scan
	// sort is the scan's cost.SortTerm, for sort-merge as the inner.
	sort float64
	// data is the table's loaded data, nil if it has none, and width its
	// number of columns, which resolve sets when every table has data.
	data  *storage.Table
	width int
	// shared says a hash build on the table costs nothing: the table is
	// loaded and scanned unfiltered, so the executor builds over its every
	// row once and shares the build (storage.Table.Memo). Under a byte
	// budget the table must fit it; a bigger input partitions and shares
	// nothing.
	shared bool
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
	model := cost.DefaultModel()
	o := &Optimizer{est: est, model: model, methods: methods, gov: opts.Governor}
	refs, hash := est.Tables(), slices.Contains(methods, HashJoin)
	if len(refs) > maxTables {
		return nil, fmt.Errorf("optimizer: %d tables exceed the DP limit of %d", len(refs), maxTables)
	}
	for t, tr := range refs {
		alias := tr.Name()
		rows, base, locals := est.Table(t)
		data := est.Catalog().Data(tr.Table)
		or := expr.DisjunctionsOf(est.Disjunctions(), alias)
		shared := hash && data != nil && len(locals) == 0 && len(or) == 0 &&
			(!o.gov.MemoryEnforced() || data.ApproxBytes() <= o.gov.MaxMemory())
		o.tables = append(o.tables, table{data: data, shared: shared, sort: model.SortTerm(rows, base.RowWidth), scan: Scan{
			Alias:    alias,
			Table:    tr.Table,
			Filter:   locals,
			FilterOr: or,
			Rows:     rows,
			BaseRows: base.Card,
			RowWidth: base.RowWidth,
			ScanCost: model.ScanCost(base.Card, base.RowWidth),
			loaded:   data != nil,
		}})
	}
	o.resolve()
	return o, nil
}

// resolve gives every column the query reads its ordinal in its table's
// data schema, once: each column id's in ords, and each scan's filters and
// OR-groups as conditions. A table without data leaves ords nil and no
// conditions; a column its table's data lacks is recorded on the scan, and
// Runnable refuses the plans that read it.
func (o *Optimizer) resolve() {
	for t := range o.tables {
		if o.tables[t].data == nil {
			return
		}
	}
	ids, ops := o.est.Classes(), o.est.Operands()
	o.ords = make([]int, ids.Len())
	for id := range o.ords {
		o.ords[id] = o.ordinal(o.est.TableOf(int32(id)), ids.Ref(int32(id)))
	}
	own := make([]int, len(o.tables)) // every table's row starts at 0
	for i, p := range o.est.Predicates() {
		if t := o.est.TableOf(ops[i].Left); ops[i].Right < 0 || o.est.TableOf(ops[i].Right) == t {
			s := &o.tables[t].scan
			s.Conds = append(s.Conds, o.cond(p, ops[i], own))
		}
	}
	for t := range o.tables {
		o.tables[t].width = o.tables[t].data.Schema().NumColumns()
		s := &o.tables[t].scan
		for _, d := range s.FilterOr {
			group := make([]Cond, len(d.Preds))
			for i, p := range d.Preds {
				group[i] = Cond{Left: o.ordinal(t, p.Left), Op: p.Op, Right: -1, Const: p.Const}
				if p.RightIsColumn {
					group[i].Right = o.ordinal(t, p.Right)
				}
			}
			s.OrConds = append(s.OrConds, group)
		}
	}
}

// ordinal resolves a column of table number t in the table's data schema,
// recording it on the table's scan if the data lacks it.
func (o *Optimizer) ordinal(t int, ref expr.ColumnRef) int {
	tb := &o.tables[t]
	i := tb.data.Schema().ColumnIndex(ref.Column)
	if i < 0 && tb.scan.missing == (expr.ColumnRef{}) {
		tb.scan.missing = ref
	}
	return i
}

// cond is predicate p, whose column ids are ops, over a row in which table
// number t's columns start at at[t].
func (o *Optimizer) cond(p expr.Predicate, ops eqclass.Operands, at []int) Cond {
	c := Cond{Left: at[o.est.TableOf(ops.Left)] + o.ords[ops.Left], Op: p.Op, Right: -1, Const: p.Const}
	if ops.Right >= 0 {
		c.Right = at[o.est.TableOf(ops.Right)] + o.ords[ops.Right]
	}
	return c
}

// Estimator returns the estimator the optimizer plans with.
func (o *Optimizer) Estimator() *cardest.Estimator { return o.est }

// scan builds the leaf plan for table number t.
func (o *Optimizer) scan(t int) *Scan {
	s := o.tables[t].scan
	return &s
}

// joinChoice is how one table joins an outer input: by which method and at
// what cumulative cost.
type joinChoice struct {
	method JoinMethod
	cost   float64
}

// cheapestMethod costs every applicable method for joining table number t,
// as the inner, to an outer input of the given cost, estimated rows and
// cost.SortTerm; equality says an equality predicate links the two. Among
// equally cheap methods the first in repertoire order wins. Each call
// charges one unit of the plan-enumeration budget.
func (o *Optimizer) cheapestMethod(outerCost, outerRows, outerSort float64, t int, equality bool) (joinChoice, error) {
	if err := o.gov.TickPlans(1); err != nil {
		return joinChoice{}, err
	}
	inner := &o.tables[t]
	found := false
	var best joinChoice
	for _, m := range o.methods {
		c := joinChoice{method: m}
		switch m {
		case NestedLoop:
			// The inner base scan is re-executed per outer row (Starburst
			// pipelined semantics; this is what makes underestimated outers
			// catastrophic).
			c.cost = o.model.NestedLoopCost(outerCost, outerRows, inner.scan.ScanCost)
		case SortMerge:
			if !equality {
				continue
			}
			c.cost = o.model.SortMergeCost(outerCost, inner.scan.ScanCost, outerRows, inner.scan.Rows, outerSort, inner.sort)
		case HashJoin:
			if !equality {
				continue
			}
			build := inner.scan.Rows
			if inner.shared {
				build = 0
			}
			c.cost = o.model.HashJoinCost(outerCost, inner.scan.ScanCost, outerRows, build)
		default:
			continue
		}
		if !found || c.cost < best.cost {
			found, best = true, c
		}
	}
	if !found {
		return joinChoice{}, fmt.Errorf("optimizer: no applicable join method for %s", inner.scan.Alias)
	}
	return best, nil
}

// chain is a left-deep plan being built: the tables it covers, its row
// width in data columns, and where each table's columns start in its rows.
type chain struct {
	plan  Plan
	mask  uint32
	width int
	at    []int // by table number
}

// begin starts a left-deep plan at table number t.
func (o *Optimizer) begin(t int) *chain {
	return &chain{plan: o.scan(t), mask: 1 << t, width: o.tables[t].width, at: make([]int, len(o.tables))}
}

// join extends the chain by the node that joins table number t to it as
// chosen, explained by step, with its key and residual as ordinals.
func (o *Optimizer) join(ch *chain, t int, step cardest.StepResult, c joinChoice) {
	left := ch.plan
	j := &Join{
		Left: left, Right: o.scan(t), Method: c.method,
		Preds: step.Eligible, Rows: step.Size, PlanCost: c.cost, Step: step,
		LeftKey: -1, RightKey: -1,
	}
	key := -1 // the key's position in Preds
	if c.method == SortMerge || c.method == HashJoin {
		key = slices.IndexFunc(step.Eligible, expr.Predicate.IsEquality)
	}
	ch.at[t] = ch.width
	if o.ords != nil {
		ops := o.est.Operands()
		for i, pos := range step.Positions {
			cond := o.cond(step.Eligible[i], ops[pos], ch.at)
			if i == key {
				j.LeftKey, j.RightKey = min(cond.Left, cond.Right), max(cond.Left, cond.Right)-ch.width
				continue
			}
			j.Residual = append(j.Residual, cond)
		}
	}
	j.tables = append(append(make([]string, 0, len(left.Tables())+1), left.Tables()...), j.Right.Alias)
	sort.Strings(j.tables)
	ch.plan, ch.mask, ch.width = j, ch.mask|1<<t, ch.width+o.tables[t].width
}

// subplan is the DP table's entry for one subset of the tables: the
// cheapest left-deep plan found for it, as numbers.
type subplan struct {
	// joinChoice is how table joined the plan of prev; a single table's
	// entry has only its scan cost there, and prev 0.
	joinChoice
	prev  uint32
	table int
	rows  float64
	width int
}

// BestPlan runs left-deep dynamic programming over connected subsets and
// returns the cheapest complete plan.
//
// Reached subsets are visited in increasing popcount, and in mask order
// within a popcount; each extends into the next level under a strict cost
// comparison, so of two equally cheap plans for a subset the one reached
// from the earlier mask wins.
//
// The search compares numbers only (cardest.StepSize, cheapestMethod); the
// plan nodes and their step explanations are built afterwards, for the
// winner alone.
func (o *Optimizer) BestPlan() (Plan, error) {
	n := len(o.tables)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: no tables")
	}

	// Only subsets some plan has reached are visited, so the search does
	// work in proportion to the plans it builds, not to 2ⁿ.
	// The table is sized once for every subset of up to ten tables; larger
	// queries reach far fewer than 2ⁿ (a chain reaches n(n+1)/2).
	best := make(map[uint32]subplan, 1<<min(n, 10))
	level := make([]uint32, n)
	for t := range o.tables {
		s := &o.tables[t].scan
		best[1<<t] = subplan{joinChoice: joinChoice{cost: s.ScanCost}, table: t, rows: s.Rows, width: s.RowWidth}
		level[t] = 1 << t
	}
	var sizes [maxTables]float64
	for size := 1; size < n; size++ {
		slices.Sort(level)
		var reached []uint32
		for _, mask := range level {
			if err := o.gov.Err(); err != nil {
				return nil, err
			}
			left := best[mask]
			outerSort := o.model.SortTerm(left.rows, left.width)
			// Prefer connected extensions; fall back to cartesian products
			// only if no table connects to this subset. Every subset below the
			// full one therefore extends, and the full set is always reached.
			var connected, disconnected, equality uint32
			for t := 0; t < n; t++ {
				if mask&(1<<t) != 0 {
					continue
				}
				var linked, eq bool
				sizes[t], linked, eq = o.est.StepSize(left.rows, uint64(mask), t)
				if linked {
					connected |= 1 << t
				} else {
					disconnected |= 1 << t
				}
				if eq {
					equality |= 1 << t
				}
			}
			ext := connected
			if ext == 0 {
				ext = disconnected
			}
			for ; ext != 0; ext &= ext - 1 {
				t := bits.TrailingZeros32(ext)
				c, err := o.cheapestMethod(left.cost, left.rows, outerSort, t, equality&(1<<t) != 0)
				if err != nil {
					return nil, err
				}
				newMask := mask | 1<<t
				cur, ok := best[newMask]
				if !ok {
					reached = append(reached, newMask)
				}
				if !ok || c.cost < cur.cost {
					best[newMask] = subplan{
						joinChoice: c, prev: mask, table: t,
						rows: sizes[t], width: left.width + o.tables[t].scan.RowWidth,
					}
				}
			}
		}
		level = reached
	}
	// Build the winner's nodes, outermost table first.
	path := make([]subplan, 0, n)
	for mask := uint32(1<<n) - 1; mask != 0; mask = best[mask].prev {
		path = append(path, best[mask])
	}
	slices.Reverse(path)
	ch := o.begin(path[0].table)
	for _, sub := range path[1:] {
		step, err := o.est.JoinStep(ch.plan.EstRows(), uint64(ch.mask), sub.table)
		if err != nil {
			return nil, err
		}
		if math.Float64bits(step.Size) != math.Float64bits(sub.rows) {
			return nil, fmt.Errorf("%w: optimizer: joining %s, JoinStep estimates %v rows where the search used %v",
				governor.ErrInternal, o.tables[sub.table].scan.Alias, step.Size, sub.rows)
		}
		o.join(ch, sub.table, step, sub.joinChoice)
	}
	return ch.plan, nil
}

// PlanForOrder builds the cheapest left-deep plan that follows the given
// table order exactly, choosing the best join method at each step. Used to
// evaluate externally fixed join orders (e.g. reproducing a specific row of
// the paper's table).
func (o *Optimizer) PlanForOrder(order []string) (Plan, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("optimizer: empty order")
	}
	var ch *chain
	for _, alias := range order {
		t, ok := o.est.TableNumber(alias)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table alias %q", alias)
		}
		if ch == nil {
			ch = o.begin(t)
			continue
		}
		step, err := o.est.JoinStep(ch.plan.EstRows(), uint64(ch.mask), t)
		if err != nil {
			return nil, err
		}
		equality := slices.ContainsFunc(step.Eligible, expr.Predicate.IsEquality)
		plan := ch.plan
		c, err := o.cheapestMethod(plan.Cost(), plan.EstRows(), o.model.SortTerm(plan.EstRows(), plan.Width()), t, equality)
		if err != nil {
			return nil, err
		}
		o.join(ch, t, step, c)
	}
	return ch.plan, nil
}
