package optimizer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/storage"
)

// ReferenceBestPlan exposes referenceBestPlan to the external differential
// test, which imports packages that import this one.
var ReferenceBestPlan = (*Optimizer).referenceBestPlan

// referenceBestPlan is the DP search as it ran before it searched on
// numbers: one JoinStep explanation per (reached subset, candidate table),
// one Join node per applicable method, the cheapest kept by a stable sort.
// It resolves aliases and statistics through the estimator on the
// spot and reads none of what New precomputes. Over data-backed tables it
// resolves every column a node reads by its "alias.column" name in the
// node's input rows, as the executor did before plans carried ordinals.
func (o *Optimizer) referenceBestPlan() (Plan, error) {
	refs := o.est.Tables()
	n := len(refs)
	scans := make([]*Scan, n)
	for i, tr := range refs {
		a := tr.Name()
		s, err := o.referenceScan(a)
		if err != nil {
			return nil, err
		}
		scans[i] = s
	}
	if n == 1 {
		return scans[0], nil
	}
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
			var connected, disconnected []int
			for t := 0; t < n; t++ {
				if mask&(1<<t) != 0 {
					continue
				}
				step, err := o.est.JoinStep(left.EstRows(), uint64(mask), t)
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
				ext = disconnected
			}
			for _, t := range ext {
				cands, err := o.referenceCandidates(left, scans[t], steps[t])
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
	return best[uint32(1<<n)-1], nil
}

func (o *Optimizer) referenceScan(alias string) (*Scan, error) {
	t, ok := o.est.TableNumber(alias)
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown table alias %q", alias)
	}
	rows, base, _ := o.est.Table(t)
	s := &Scan{
		Alias:    alias,
		Table:    alias,
		FilterOr: expr.DisjunctionsOf(o.est.Disjunctions(), alias),
		Rows:     rows,
		BaseRows: base.Card,
		RowWidth: base.RowWidth,
	}
	for _, tr := range o.est.Tables() {
		if strings.EqualFold(tr.Name(), alias) {
			s.Table = tr.Table
		}
	}
	for _, p := range o.est.Predicates() {
		if p.Kind() != expr.KindJoin && p.References(alias) {
			s.Filter = append(s.Filter, p)
		}
	}
	s.ScanCost = o.model.ScanCost(s.BaseRows, s.RowWidth)
	if labels := o.referenceLabels(alias); labels != nil {
		s.loaded = true
		s.Conds = referenceConds(s.Filter, labels)
		for _, d := range s.FilterOr {
			s.OrConds = append(s.OrConds, referenceConds(d.Preds, labels))
		}
	}
	return s, nil
}

// referenceLabels lists the "alias.column" labels of the rows a left-deep
// plan over the aliased tables produces, nil if a table has no data.
func (o *Optimizer) referenceLabels(aliases ...string) []string {
	var labels []string
	for _, alias := range aliases {
		var data *storage.Table
		for _, tr := range o.est.Tables() {
			if strings.EqualFold(tr.Name(), alias) {
				data = o.est.Catalog().Data(tr.Table)
			}
		}
		if data == nil {
			return nil
		}
		for _, c := range data.Schema().Columns() {
			labels = append(labels, alias+"."+c.Name)
		}
	}
	return labels
}

// referenceColumn finds a column by name among labels.
func referenceColumn(labels []string, ref expr.ColumnRef) int {
	return slices.IndexFunc(labels, func(l string) bool { return strings.EqualFold(l, ref.Table+"."+ref.Column) })
}

// referenceConds resolves each predicate's columns by name among labels.
func referenceConds(preds []expr.Predicate, labels []string) []Cond {
	var out []Cond
	for _, p := range preds {
		c := Cond{Left: referenceColumn(labels, p.Left), Op: p.Op, Right: -1, Const: p.Const}
		if p.RightIsColumn {
			c.Right = referenceColumn(labels, p.Right)
		}
		out = append(out, c)
	}
	return out
}

// referenceKey resolves a join's key and residual by name: the key is the
// first equality predicate, with its sides found in either order, and the
// residual every other predicate the node evaluates (referenceRun).
func (o *Optimizer) referenceKey(j *Join) {
	j.LeftKey, j.RightKey = -1, -1
	left, right := o.referenceLabels(JoinOrder(j.Left)...), o.referenceLabels(j.Right.Alias)
	if left == nil || right == nil {
		return
	}
	equal := map[string]string{}
	o.referenceRan(equal, j.Left)
	o.referenceRun(equal, j, func(p expr.Predicate, key bool) {
		if !key {
			j.Residual = append(j.Residual, referenceConds([]expr.Predicate{p}, append(slices.Clip(left), right...))...)
		} else if j.LeftKey = referenceColumn(left, p.Left); j.LeftKey >= 0 {
			j.RightKey = referenceColumn(right, p.Right)
		} else {
			j.LeftKey, j.RightKey = referenceColumn(left, p.Right), referenceColumn(right, p.Left)
		}
	})
}

// referenceRan records in equal every equality the joins of plan p run.
func (o *Optimizer) referenceRan(equal map[string]string, p Plan) {
	if j, ok := p.(*Join); ok {
		o.referenceRan(equal, j.Left)
		o.referenceRun(equal, j, func(expr.Predicate, bool) {})
	}
}

// referenceRun calls eval, in order, for each predicate of Preds join j
// evaluates, the key (a sort-merge or hash join's first equality) marked.
// equal is a union-find over lower-cased "alias.column" names: an equality
// j evaluates between two columns of the same type, with data, joins their
// sets, and an equality between two names one set already holds is implied
// by the equalities run before it, and is not evaluated.
func (o *Optimizer) referenceRun(equal map[string]string, j *Join, eval func(p expr.Predicate, key bool)) {
	root := func(ref expr.ColumnRef) string {
		name := strings.ToLower(ref.Table + "." + ref.Column)
		for equal[name] != "" {
			name = equal[name]
		}
		return name
	}
	keyed := j.Method == SortMerge || j.Method == HashJoin
	for _, p := range j.Preds {
		eq := p.Op == expr.OpEQ && p.RightIsColumn
		key := keyed && eq
		if eq && !key && root(p.Left) == root(p.Right) {
			continue
		}
		keyed = keyed && !key
		eval(p, key)
		if typ := o.referenceType(p.Left); eq && typ != storage.TypeInvalid && typ == o.referenceType(p.Right) {
			if l, r := root(p.Left), root(p.Right); l != r {
				equal[l] = r
			}
		}
	}
}

// referenceType is the type of a column in its aliased table's data, or
// TypeInvalid if the table has no data or the data no such column.
func (o *Optimizer) referenceType(ref expr.ColumnRef) storage.Type {
	for _, tr := range o.est.Tables() {
		if data := o.est.Catalog().Data(tr.Table); data != nil && strings.EqualFold(tr.Name(), ref.Table) {
			if i := data.Schema().ColumnIndex(ref.Column); i >= 0 {
				return data.Schema().Column(i).Type
			}
		}
	}
	return storage.TypeInvalid
}

// referenceCandidates builds one Join node per applicable method for
// extending left with next, cheapest first.
func (o *Optimizer) referenceCandidates(left Plan, next *Scan, step cardest.StepResult) ([]*Join, error) {
	if err := o.gov.TickPlans(1); err != nil {
		return nil, err
	}
	hasEquality := slices.ContainsFunc(step.Eligible, expr.Predicate.IsEquality)
	tables := append(append([]string{}, left.Tables()...), next.Alias)
	sort.Strings(tables)
	var out []*Join
	for _, m := range o.methods {
		var c float64
		switch m {
		case NestedLoop:
			c = o.model.NestedLoopCost(left.Cost(), left.EstRows(), next.ScanCost)
		case SortMerge:
			if !hasEquality {
				continue
			}
			c = o.model.SortMergeCost(left.Cost(), next.ScanCost, left.EstRows(), next.EstRows(),
				o.model.SortTerm(left.EstRows(), left.Width()), o.model.SortTerm(next.EstRows(), next.Width()))
		case HashJoin:
			if !hasEquality {
				continue
			}
			c = o.model.HashJoinCost(left.Cost(), next.ScanCost, left.EstRows(), o.referenceBuildRows(next))
		default:
			continue
		}
		j := &Join{
			Left: left, Right: next, Method: m,
			Preds: step.Eligible, Rows: step.Size, PlanCost: c, Step: step,
			tables: tables,
		}
		o.referenceKey(j)
		out = append(out, j)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("optimizer: no applicable join method for %s", next.Alias)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].PlanCost < out[j].PlanCost })
	return out, nil
}

// referenceBuildRows is the rows a hash join building on next pays to
// build. An unfiltered scan of a loaded table hands the join a view of the
// base columns, whose hash table the executor builds once per column and
// keeps: that build is already paid for, so it is priced at no rows. A byte
// budget the whole table exceeds would partition the build, and a
// partition's table is the join's own.
func (o *Optimizer) referenceBuildRows(next *Scan) float64 {
	data := o.est.Catalog().Data(next.Table)
	if data == nil || len(next.Filter) > 0 || len(next.FilterOr) > 0 {
		return next.EstRows()
	}
	if budget := o.gov.MaxMemory(); budget > 0 && data.ApproxBytes() > budget {
		return next.EstRows()
	}
	return 0
}

// shapeQuery builds a query over n tables joined as a chain (Tᵢ₋₁.b =
// Tᵢ.a), a star (T₀.cᵢ = Tᵢ.a) or one class (Tᵢ₋₁.a = Tᵢ.a, with T₀.a < 50).
// In a chain or a star every edge has its own columns, so closure implies
// nothing and the join graph keeps its shape: a chain of n tables has
// n(n+1)/2 connected subsets.
func shapeQuery(shape string, n int) (*catalog.Catalog, []cardest.TableRef, []expr.Predicate) {
	cat := catalog.New()
	var tabs []cardest.TableRef
	var preds []expr.Predicate
	hub := map[string]float64{}
	for i := 1; i < n; i++ {
		hub[fmt.Sprintf("c%d", i)] = float64(50 * i)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("T%d", i)
		cols := map[string]float64{"a": float64(100 + 10*i), "b": float64(200 + 7*i)}
		if shape == "star" && i == 0 {
			cols = hub
		}
		cat.MustAddTable(catalog.SimpleTable(name, float64(1000*(i+1)), cols))
		tabs = append(tabs, cardest.TableRef{Table: name})
		switch {
		case i == 0 && shape == "class":
			preds = append(preds, expr.NewConst(ref("T0", "a"), expr.OpLT, storage.Int64(50)))
		case i == 0:
		case shape == "star":
			preds = append(preds, expr.NewJoin(ref("T0", fmt.Sprintf("c%d", i)), expr.OpEQ, ref(name, "a")))
		case shape == "class":
			preds = append(preds, expr.NewJoin(ref(fmt.Sprintf("T%d", i-1), "a"), expr.OpEQ, ref(name, "a")))
		default:
			preds = append(preds, expr.NewJoin(ref(fmt.Sprintf("T%d", i-1), "b"), expr.OpEQ, ref(name, "a")))
		}
	}
	return cat, tabs, preds
}

// shapeEstimator builds an ELS estimator (closure on) over shapeQuery.
func shapeEstimator(tb testing.TB, shape string, n int) *cardest.Estimator {
	tb.Helper()
	cat, tabs, preds := shapeQuery(shape, n)
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

// A 22-table chain has 253 connected subsets and about 500 candidate
// plans, which MaxPlans 1000 admits; the search must allocate in proportion
// to those, not to the 2²² subsets the governor never hears about.
func TestBestPlanWorkFollowsReachedSubsets(t *testing.T) {
	const n = 22
	opts := PaperOptions()
	opts.Governor = governor.New(context.Background(), governor.Limits{MaxPlans: 1000})
	o, err := New(shapeEstimator(t, "chain", n), opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan, err := o.BestPlan()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Tables()); got != n {
		t.Fatalf("plan covers %d tables, want %d", got, n)
	}
	if _, _, plans := opts.Governor.Usage(); plans != n*(n-1) {
		t.Errorf("charged %d plans, want %d (two ends of every proper interval)", plans, n*(n-1))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("BestPlan allocated %d bytes for %d connected subsets, want under 16 MiB", grew, n*(n+1)/2)
	}
}

// The search itself allocates nothing per candidate: what is left is the DP
// table, the per-level subset lists and the winner's n−1 nodes.
func TestBestPlanAllocationCeiling(t *testing.T) {
	for _, shape := range []string{"chain", "star"} {
		o, err := New(shapeEstimator(t, shape, 8), PaperOptions())
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if benchPlan, err = o.BestPlan(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 400 {
			t.Errorf("%s n=8: %v allocations per BestPlan, want at most 400", shape, allocs)
		}
	}
}

// ELS steps 1–5 run on column numbers: each column's key is built once,
// and closure, the classes, the fold of local predicates and step 5 index
// columns by id, so construction allocates per table and per predicate, not
// per comparison of two keys or per column of a table.
func TestNewQueryAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		shape          string
		preds, ceiling int
	}{
		{"chain", 7, 84},
		{"class", 36, 150},
	} {
		cat, tabs, preds := shapeQuery(c.shape, 8)
		var est *cardest.Estimator
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if est, err = cardest.NewQuery(cat, tabs, preds, nil, cardest.ELS()); err != nil {
				t.Fatal(err)
			}
		})
		if got := len(est.Predicates()); got != c.preds {
			t.Errorf("%s n=8: %d predicates after closure, want %d", c.shape, got, c.preds)
		}
		if allocs > float64(c.ceiling) {
			t.Errorf("%s n=8: %v allocations per NewQuery, want at most %d", c.shape, allocs, c.ceiling)
		}
	}
}

// New sizes its table list once: 13 objects for an 8-table query when this
// was written, 16 while it appended each table to a nil slice.
func TestOptimizerNewAllocationCeiling(t *testing.T) {
	for _, shape := range []string{"chain", "star", "class"} {
		est := shapeEstimator(t, shape, 8)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := New(est, PaperOptions()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 13 {
			t.Errorf("%s n=8: %v allocations per optimizer.New, want at most 13", shape, allocs)
		}
	}
}

// The plan budget and cancellation are polled inside the search, not
// around it.
func TestBestPlanBudgetAndCancelInsideSearch(t *testing.T) {
	est := shapeEstimator(t, "star", 8)
	opts := PaperOptions()
	opts.Governor = governor.New(context.Background(), governor.Limits{MaxPlans: 100})
	o, err := New(est, opts)
	if err != nil {
		t.Fatal(err)
	}
	var budget *governor.BudgetError
	if _, err := o.BestPlan(); !errors.Is(err, governor.ErrBudgetExceeded) || !errors.As(err, &budget) || budget.Resource != "plans" {
		t.Errorf("MaxPlans 100: err = %v, want the plans budget error", err)
	}
	if _, _, plans := opts.Governor.Usage(); plans != 101 {
		t.Errorf("charged %d plans, want 101 (the search stops at the first one over)", plans)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Governor = governor.New(ctx, governor.Limits{})
	if o, err = New(est, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := o.BestPlan(); !errors.Is(err, governor.ErrCanceled) {
		t.Errorf("cancelled context: err = %v, want ErrCanceled", err)
	}
}

var benchPlan Plan

func BenchmarkBestPlan(b *testing.B) {
	for _, shape := range []string{"chain", "star"} {
		for _, n := range []int{4, 6, 8} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				o, err := New(shapeEstimator(b, shape, n), PaperOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if benchPlan, err = o.BestPlan(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
