package selest

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// EffectiveStats are the statistics of one table after all of its local
// predicates have been folded in (ELS step 4 plus the Section 6 single-table
// j-equivalence reduction of step 5). Join selectivity computation and
// result-size estimation use these instead of the raw catalog statistics;
// the raw statistics stay in the catalog for access-cost calculations, as
// Section 5 prescribes.
type EffectiveStats struct {
	// Table is the table (or alias) name.
	Table string
	// OrigCard is the unreduced table cardinality ‖R‖.
	OrigCard float64
	// Card is the effective cardinality ‖R‖′ after local predicates.
	Card float64
	// LocalSelectivity is Card/OrigCard (1 when no local predicates).
	LocalSelectivity float64
	// ColCard maps lower-cased column names to effective column
	// cardinalities d′.
	ColCard map[string]float64
	// ColSel maps lower-cased column names to the combined selectivity of
	// the constant predicates on that column (only predicated columns
	// appear).
	ColSel map[string]float64
	// JEquivGroups lists the same-table j-equivalent join column groups
	// that were folded via the Section 6 formulas (each sorted, lower-cased).
	JEquivGroups [][]string
}

// ColumnCard returns the effective column cardinality of the named column,
// or an error if the column is unknown.
func (e *EffectiveStats) ColumnCard(name string) (float64, error) {
	if d, ok := e.ColCard[strings.ToLower(name)]; ok {
		return d, nil
	}
	return 0, fmt.Errorf("selest: table %s has no column %q", e.Table, name)
}

// defaultColColSelectivity is the classic System-R guess for a non-equality
// comparison between two columns, used for local column-column predicates
// the paper does not model.
const defaultColColSelectivity = 1.0 / 3.0

// EffectiveTable folds the table's local predicates into its statistics.
// locals must all reference the table named by ts.Name: constant predicates
// (handled per Section 5 with the [16] multi-predicate resolution),
// same-table column equality predicates (handled per Section 6), and
// same-table non-equality column comparisons (classic 1/3 heuristic).
// disjs are OR-groups over this table (a beyond-paper extension); each
// reduces the cardinality by its DisjunctionSelectivity and urn-reduces
// every column, pinning none.
func EffectiveTable(ts *catalog.TableStats, locals []expr.Predicate, disjs []expr.Disjunction) (*EffectiveStats, error) {
	if ts == nil {
		return nil, fmt.Errorf("selest: nil table stats")
	}
	eff := &EffectiveStats{
		Table:            ts.Name,
		OrigCard:         ts.Card,
		Card:             ts.Card,
		LocalSelectivity: 1,
		ColCard:          make(map[string]float64, len(ts.Columns)),
		ColSel:           make(map[string]float64),
	}
	for k, cs := range ts.Columns {
		eff.ColCard[k] = cs.Distinct
	}

	var consts, colEq, colOther []expr.Predicate
	for _, p := range locals {
		if !p.References(ts.Name) {
			return nil, fmt.Errorf("selest: predicate %s does not reference table %s", p, ts.Name)
		}
		switch p.Kind() {
		case expr.KindLocalConst:
			consts = append(consts, p)
		case expr.KindLocalColCol:
			if p.Op == expr.OpEQ {
				colEq = append(colEq, p)
			} else {
				colOther = append(colOther, p)
			}
		default:
			return nil, fmt.Errorf("selest: %s is a join predicate, not a local predicate of %s", p, ts.Name)
		}
	}

	// --- Constant predicates (Section 5, with [16] resolution per column).
	cardBefore := eff.Card
	for _, set := range GroupConstPredicates(consts) {
		cs := ts.Column(set.Column.Column)
		if cs == nil {
			return nil, fmt.Errorf("selest: table %s has no column %q", ts.Name, set.Column.Column)
		}
		sel, err := set.Resolve(cs)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(set.Column.Column)
		eff.ColSel[key] = sel
		eff.Card *= sel
		// The predicate's own column: equality pins d′ to the number of
		// matching constants (1, or 0 on contradiction); ranges scale d by
		// the predicate selectivity, d′_y = d_y × S_L (Section 5).
		if hasEquality(set.Preds) {
			if sel > 0 {
				eff.ColCard[key] = 1
			} else {
				eff.ColCard[key] = 0
			}
		} else {
			d := eff.ColCard[key] * sel
			if sel > 0 && d < 1 {
				d = 1
			}
			eff.ColCard[key] = d
		}
	}
	// Same-table non-equality column comparisons: heuristic selectivity.
	for range colOther {
		eff.Card *= defaultColColSelectivity
	}
	// OR-groups: pure row reduction, no column pinning.
	for _, d := range disjs {
		if !d.References(ts.Name) {
			return nil, fmt.Errorf("selest: disjunction %s does not reference table %s", d, ts.Name)
		}
		sel, err := DisjunctionSelectivity(ts, d)
		if err != nil {
			return nil, err
		}
		eff.Card *= sel
	}
	// Other columns shrink via the urn model now that rows were removed.
	if eff.Card < cardBefore {
		for k, cs := range ts.Columns {
			key := strings.ToLower(k)
			if _, predicated := eff.ColSel[key]; predicated {
				continue
			}
			eff.ColCard[key] = ReduceDistinct(cs.Distinct, cardBefore, eff.Card)
		}
	}

	// --- Same-table j-equivalent join columns (Section 6).
	groups := sameTableGroups(colEq)
	for _, group := range groups {
		ds := make([]float64, 0, len(group))
		for _, col := range group {
			d, ok := eff.ColCard[col]
			if !ok {
				return nil, fmt.Errorf("selest: table %s has no column %q", ts.Name, col)
			}
			ds = append(ds, d)
		}
		sort.Float64s(ds)
		// ‖R‖′ = ⌈‖R‖ / (d_(2) · d_(3) ⋯ d_(n))⌉
		div := 1.0
		for _, d := range ds[1:] {
			div *= d
		}
		before := eff.Card
		if div > 0 {
			eff.Card = math.Ceil(eff.Card / div)
		} else {
			eff.Card = 0
		}
		// Effective join cardinality: ⌈d_(1)·(1−(1−1/d_(1))^‖R‖′)⌉ for every
		// column in the group (only one of them will be joined; they are
		// interchangeable after the local equality is applied).
		dEff := UrnDistinctCeil(ds[0], eff.Card)
		for _, col := range group {
			eff.ColCard[col] = dEff
		}
		// Remaining columns shrink again for the extra row reduction.
		if eff.Card < before {
			inGroup := make(map[string]bool, len(group))
			for _, col := range group {
				inGroup[col] = true
			}
			for k := range eff.ColCard {
				if inGroup[k] {
					continue
				}
				eff.ColCard[k] = ReduceDistinct(eff.ColCard[k], before, eff.Card)
			}
		}
		eff.JEquivGroups = append(eff.JEquivGroups, group)
	}

	if eff.OrigCard > 0 {
		eff.LocalSelectivity = eff.Card / eff.OrigCard
	}
	return eff, nil
}

func hasEquality(preds []expr.Predicate) bool {
	for _, p := range preds {
		if p.Op == expr.OpEQ {
			return true
		}
	}
	return false
}

// sameTableGroups unions the columns linked by same-table equality
// predicates and returns the groups of size >= 2 (sorted members, groups
// ordered by first member).
func sameTableGroups(colEq []expr.Predicate) [][]string {
	parent := make(map[string]string)
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	add := func(x string) {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
	}
	var order []string
	for _, p := range colEq {
		l := strings.ToLower(p.Left.Column)
		r := strings.ToLower(p.Right.Column)
		for _, c := range []string{l, r} {
			if _, ok := parent[c]; !ok {
				add(c)
				order = append(order, c)
			}
		}
		if find(l) != find(r) {
			parent[find(l)] = find(r)
		}
	}
	byRoot := make(map[string][]string)
	for _, c := range order {
		r := find(c)
		byRoot[r] = append(byRoot[r], c)
	}
	var out [][]string
	for _, g := range byRoot {
		if len(g) < 2 {
			continue
		}
		sort.Strings(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
