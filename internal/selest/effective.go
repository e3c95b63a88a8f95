package selest

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/eqclass"
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

// EffectiveTable folds the local predicates of the table the query calls
// name into its statistics ts. locals must all reference that name:
// constant predicates (handled per Section 5 with the [16] multi-predicate
// resolution), same-table column equality predicates (handled per Section
// 6), and same-table non-equality column comparisons (classic 1/3
// heuristic).
// disjs are OR-groups over this table (a beyond-paper extension); each
// reduces the cardinality by its DisjunctionSelectivity and urn-reduces
// every column, pinning none.
func EffectiveTable(ts *catalog.TableStats, name string, locals []expr.Predicate, disjs []expr.Disjunction) (*EffectiveStats, error) {
	return fold(ts, name, locals, disjs, true)
}

// StandardTable models "the standard algorithm most commonly in use in
// current relational systems" (Section 8): local predicates reduce the
// table cardinality, but join selectivities are computed independent of
// their effect, so column cardinalities stay raw. A same-table column
// comparison is no special case (Section 3.2: "current query optimizers do
// not treat this as a special case"): it divides the cardinality by the
// larger column cardinality, or by 3.
func StandardTable(ts *catalog.TableStats, name string, locals []expr.Predicate, disjs []expr.Disjunction) (*EffectiveStats, error) {
	return fold(ts, name, locals, disjs, false)
}

func fold(ts *catalog.TableStats, name string, locals []expr.Predicate, disjs []expr.Disjunction, effective bool) (*EffectiveStats, error) {
	if ts == nil {
		return nil, fmt.Errorf("selest: nil table stats")
	}
	eff := &EffectiveStats{
		Table:            name,
		OrigCard:         ts.Card,
		Card:             ts.Card,
		LocalSelectivity: 1,
		ColCard:          make(map[string]float64, len(ts.Columns)),
	}
	for k, cs := range ts.Columns {
		eff.ColCard[k] = cs.Distinct
	}

	var consts, colEq, colOther []expr.Predicate
	for _, p := range locals {
		if !p.References(name) {
			return nil, fmt.Errorf("selest: predicate %s does not reference table %s", p, name)
		}
		switch kind := p.Kind(); {
		case kind == expr.KindLocalConst:
			consts = append(consts, p)
		case kind != expr.KindLocalColCol:
			return nil, fmt.Errorf("selest: %s is a join predicate, not a local predicate of %s", p, name)
		case !effective:
			l, r := ts.Column(p.Left.Column), ts.Column(p.Right.Column)
			if l == nil || r == nil {
				return nil, fmt.Errorf("selest: table %s missing column in %s", name, p)
			}
			d := l.Distinct
			if r.Distinct > d {
				d = r.Distinct
			}
			if p.Op != expr.OpEQ {
				eff.Card /= 3
			} else if d > 0 {
				eff.Card /= d
			}
		case p.Op == expr.OpEQ:
			colEq = append(colEq, p)
		default:
			colOther = append(colOther, p)
		}
	}

	// --- Constant predicates (Section 5, with [16] resolution per column).
	cardBefore := eff.Card
	var predicated []string // columns with constant predicates
	for _, set := range GroupConstPredicates(consts) {
		cs := ts.Column(set.Column.Column)
		if cs == nil {
			return nil, fmt.Errorf("selest: table %s has no column %q", name, set.Column.Column)
		}
		sel, err := set.Resolve(cs)
		if err != nil {
			return nil, err
		}
		eff.Card *= sel
		if !effective {
			continue
		}
		// The predicate's own column: equality pins d′ to the number of
		// matching constants (1, or 0 on contradiction); ranges scale d by
		// the predicate selectivity, d′_y = d_y × S_L (Section 5).
		key := strings.ToLower(set.Column.Column)
		predicated = append(predicated, key)
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
		if !d.References(name) {
			return nil, fmt.Errorf("selest: disjunction %s does not reference table %s", d, name)
		}
		sel, err := DisjunctionSelectivity(ts, d)
		if err != nil {
			return nil, err
		}
		eff.Card *= sel
	}
	// Other columns shrink via the urn model now that rows were removed.
	if effective && eff.Card < cardBefore {
		for k, cs := range ts.Columns {
			key := strings.ToLower(k)
			if slices.Contains(predicated, key) {
				continue
			}
			eff.ColCard[key] = ReduceDistinct(cs.Distinct, cardBefore, eff.Card)
		}
	}

	// --- Same-table j-equivalent join columns (Section 6), by column name.
	sameTable := eqclass.New()
	for _, p := range colEq {
		sameTable.Union(expr.ColumnRef{Column: p.Left.Column}, expr.ColumnRef{Column: p.Right.Column})
	}
	for _, class := range sameTable.All() {
		group := make([]string, len(class))
		ds := make([]float64, len(class))
		for i, ref := range class {
			group[i] = strings.ToLower(ref.Column)
			d, ok := eff.ColCard[group[i]]
			if !ok {
				return nil, fmt.Errorf("selest: table %s has no column %q", name, group[i])
			}
			ds[i] = d
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
			for k := range eff.ColCard {
				if !slices.Contains(group, k) {
					eff.ColCard[k] = ReduceDistinct(eff.ColCard[k], before, eff.Card)
				}
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
