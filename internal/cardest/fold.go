package cardest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/selest"
)

// fold is ELS steps 3–4: it folds every table's local predicates and
// OR-groups into its effective cardinality ‖R‖′ and into the effective
// cardinality d′ of each of its predicate columns, by column id. The raw
// statistics stay in base for access costs, as Section 5 prescribes.
//
// Constant predicates multiply column by column in key order, each
// column's set resolved per [16]. An equality pins its column's d′ to 1 (0
// on a contradiction) and a range scales d′ by its selectivity (Section
// 5). A same-table non-equality column comparison costs the classic 1/3,
// and an OR-group its DisjunctionSelectivity. The table's other columns
// then shrink by the urn model. Last, the table's local column equalities
// fold by Section 6 (foldEqualities).
//
// Under the standard algorithm (UseEffectiveStats off) local predicates
// reduce ‖R‖′ only, and a same-table column comparison is no special case
// (Section 3.2): it divides ‖R‖′ by the larger column cardinality, or by 3.
func (e *Estimator) fold() error {
	effective := e.cfg.UseEffectiveStats
	e.card = make([]float64, len(e.refs))
	for t, ts := range e.base {
		e.card[t] = ts.Card
	}
	for id := range e.cols {
		e.cols[id].card = e.cols[id].stats.Distinct
	}
	// Positions of the local constant predicates, column equalities and
	// other column comparisons, in predicate-set order.
	var consts, eqs, others []int32
	for i, p := range e.preds {
		ops := e.operands[i]
		l := &e.cols[ops.Left]
		t := l.table
		if ops.Right >= 0 && e.cols[ops.Right].table != t {
			continue // a join predicate
		}
		e.locals[t] = append(e.locals[t], p)
		switch {
		case ops.Right < 0:
			consts = append(consts, int32(i))
		case !effective:
			if d := max(l.stats.Distinct, e.cols[ops.Right].stats.Distinct); p.Op != expr.OpEQ {
				e.card[t] /= 1 / selest.DefaultColColSelectivity // exactly 3
			} else if d > 0 {
				e.card[t] /= d
			}
		case p.Op == expr.OpEQ:
			eqs = append(eqs, int32(i))
		default:
			others = append(others, int32(i))
		}
	}

	slices.SortStableFunc(consts, func(a, b int32) int {
		return strings.Compare(e.classes.Key(e.operands[a].Left), e.classes.Key(e.operands[b].Left))
	})
	pinned := make([]bool, len(e.cols))
	var set selest.ColumnPredicateSet
	for i := 0; i < len(consts); {
		id := e.operands[consts[i]].Left
		set.Column, set.Preds = e.classes.Ref(id), set.Preds[:0]
		for ; i < len(consts) && e.operands[consts[i]].Left == id; i++ {
			set.Preds = append(set.Preds, e.preds[consts[i]])
		}
		c := &e.cols[id]
		sel, err := set.Resolve(c.stats)
		if err != nil {
			return err
		}
		e.card[c.table] *= sel
		if !effective {
			continue
		}
		pinned[id] = true
		if slices.ContainsFunc(set.Preds, func(p expr.Predicate) bool { return p.Op == expr.OpEQ }) {
			c.card = 0
			if sel > 0 {
				c.card = 1
			}
		} else if c.card *= sel; sel > 0 && c.card < 1 {
			c.card = 1
		}
	}
	for _, i := range others {
		e.card[e.cols[e.operands[i].Left].table] *= selest.DefaultColColSelectivity
	}
	for t, tr := range e.refs {
		for _, d := range e.disjs {
			if !d.References(tr.Name()) {
				continue
			}
			sel, err := selest.DisjunctionSelectivity(e.base[t], d)
			if err != nil {
				return err
			}
			e.card[t] *= sel
		}
		if effective {
			e.shrink(t, e.base[t].Card, func(id int32) bool { return !pinned[id] })
		}
	}

	e.foldEqualities(eqs)
	return nil
}

// foldEqualities is Section 6 for the local column equalities at positions
// eqs: each component of a table's equalities, in the order of its
// smallest key, divides ‖R‖′ by all but the smallest of its columns' d′.
func (e *Estimator) foldEqualities(eqs []int32) {
	if len(eqs) == 0 {
		return
	}
	root := make([]int32, len(e.cols))
	for id := range root {
		root[id] = int32(id)
	}
	find := func(id int32) int32 {
		for root[id] != id {
			id = root[id]
		}
		return id
	}
	members := make([]int32, 0, 2*len(eqs))
	for _, i := range eqs {
		ops := e.operands[i]
		root[find(ops.Right)] = find(ops.Left)
		members = append(members, ops.Left, ops.Right)
	}
	slices.SortFunc(members, func(a, b int32) int { return strings.Compare(e.classes.Key(a), e.classes.Key(b)) })
	members = slices.Compact(members)
	var group []int32
	var ds []float64
	for i, id := range members {
		r := find(id)
		if slices.ContainsFunc(members[:i], func(m int32) bool { return find(m) == r }) {
			continue // folded at the component's smallest key
		}
		group, ds = group[:0], ds[:0]
		for _, m := range members[i:] {
			if find(m) == r {
				group, ds = append(group, m), append(ds, e.cols[m].card)
			}
		}
		if len(group) < 2 { // a column equated only with itself
			continue
		}
		sort.Float64s(ds)
		// ‖R‖′ = ⌈‖R‖ / (d_(2) · d_(3) ⋯ d_(n))⌉
		div := 1.0
		for _, d := range ds[1:] {
			div *= d
		}
		t := e.cols[id].table
		from := e.card[t]
		if div > 0 {
			e.card[t] = math.Ceil(from / div)
		} else {
			e.card[t] = 0
		}
		// Every column of the group gets the effective join cardinality
		// ⌈d_(1)·(1−(1−1/d_(1))^‖R‖′)⌉: after the local equality they are
		// interchangeable.
		dEff := selest.UrnDistinctCeil(ds[0], e.card[t])
		for _, m := range group {
			e.cols[m].card = dEff
		}
		e.shrink(t, from, func(id int32) bool { return find(id) != r })
	}
}

// shrink records a reduction of table t's rows from ‖R‖′ = from to its
// current ‖R‖′, if there was one, and applies it by the urn model to the d′
// of every column of t that reduced says the reduction did not set.
func (e *Estimator) shrink(t int, from float64, reduced func(id int32) bool) {
	to := e.card[t]
	if to >= from {
		return
	}
	for id := range e.cols {
		if c := &e.cols[id]; c.table == t && reduced(int32(id)) {
			c.card = selest.ReduceDistinct(c.card, from, to)
		}
	}
	e.shrinks = append(e.shrinks, shrink{t, from, to})
}

// ColumnCard returns the effective column cardinality d′ of table number
// t's column. A predicate column's d′ is the one steps 3–4 folded; any other
// column's is its raw d reduced by each of the table's row reductions in
// turn, the urn model's answer for a column no predicate names.
func (e *Estimator) ColumnCard(t int, column string) (float64, error) {
	for id, c := range e.cols {
		if c.table == t && strings.EqualFold(e.classes.Ref(int32(id)).Column, column) {
			return c.card, nil
		}
	}
	cs := e.base[t].Column(column)
	if cs == nil {
		return 0, fmt.Errorf("cardest: table %q has no column %q", e.refs[t].Name(), column)
	}
	d := cs.Distinct
	for _, s := range e.shrinks {
		if s.table == t {
			d = selest.ReduceDistinct(d, s.from, s.to)
		}
	}
	return d, nil
}
