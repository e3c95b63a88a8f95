package selest

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

// ConstSelectivity estimates the fraction of rows of a column satisfying
// "col op const". With a histogram the histogram drives the estimate
// (Section 5: "If we have distribution statistics on y, they can be used to
// accurately estimate ‖R‖′"); otherwise the uniformity assumption over the
// column's [min, max] range (integer-aware) applies, with System-R style
// fallbacks when no range is known.
func ConstSelectivity(cs *catalog.ColumnStats, op expr.CompareOp, c storage.Value) (float64, error) {
	if cs == nil {
		return 0, fmt.Errorf("selest: no statistics for column")
	}
	if c.IsNull() {
		return 0, nil // col op NULL is never true
	}
	// Equality and inequality use the distinct count directly.
	d := cs.Distinct
	switch op {
	case expr.OpEQ:
		if cs.Hist != nil && numeric(c) {
			return cs.Hist.SelectivityEQ(c.AsFloat()), nil
		}
		if d <= 0 {
			return 0, nil
		}
		return clamp01(1 / d), nil
	case expr.OpNE:
		if cs.Hist != nil && numeric(c) {
			return clamp01(1 - cs.Hist.SelectivityEQ(c.AsFloat())), nil
		}
		if d <= 0 {
			return 1, nil
		}
		return clamp01(1 - 1/d), nil
	}
	// Range comparison.
	if !numeric(c) {
		// Non-numeric ranges fall back to the classic 1/3 guess.
		return 1.0 / 3.0, nil
	}
	cf := c.AsFloat()
	if cs.Hist != nil {
		switch op {
		case expr.OpLT:
			return cs.Hist.SelectivityLT(cf), nil
		case expr.OpLE:
			return cs.Hist.SelectivityLE(cf), nil
		case expr.OpGT:
			return cs.Hist.SelectivityGT(cf), nil
		case expr.OpGE:
			return cs.Hist.SelectivityGE(cf), nil
		}
	}
	if !cs.HasRange || cs.Max < cs.Min {
		return 1.0 / 3.0, nil
	}
	return uniformRangeSelectivity(cs, op, cf), nil
}

func numeric(v storage.Value) bool {
	return v.Type() == storage.TypeInt64 || v.Type() == storage.TypeFloat64
}

// uniformRangeSelectivity applies the uniformity assumption over the
// column's value range. Integer columns use a discrete domain of
// max−min+1 values so that, e.g., x < 100 over domain 0..999 has
// selectivity exactly 100/1000 = 0.1, matching the arithmetic of the
// paper's Section 8 experiment.
func uniformRangeSelectivity(cs *catalog.ColumnStats, op expr.CompareOp, c float64) float64 {
	if cs.Type == storage.TypeInt64 {
		width := cs.Max - cs.Min + 1
		if width <= 0 {
			return 1.0 / 3.0
		}
		cc := math.Floor(c)
		var count float64
		switch op {
		case expr.OpLT:
			count = cc - cs.Min // values in [min, c-1]; c itself excluded even if fractional
			if c > cc {
				count++ // x < 100.5 includes 100
			}
		case expr.OpLE:
			count = cc - cs.Min + 1
		case expr.OpGT:
			count = cs.Max - cc // values in [floor(c)+1, max], for integral and fractional c
		case expr.OpGE:
			count = cs.Max - math.Ceil(c) + 1
		}
		return clamp01(count / width)
	}
	width := cs.Max - cs.Min
	if width <= 0 {
		// Point distribution: compare directly.
		v := cs.Min
		var hold bool
		switch op {
		case expr.OpLT:
			hold = v < c
		case expr.OpLE:
			hold = v <= c
		case expr.OpGT:
			hold = v > c
		case expr.OpGE:
			hold = v >= c
		}
		if hold {
			return 1
		}
		return 0
	}
	var frac float64
	switch op {
	case expr.OpLT, expr.OpLE:
		frac = (c - cs.Min) / width
	case expr.OpGT, expr.OpGE:
		frac = (cs.Max - c) / width
	}
	return clamp01(frac)
}

// ColumnPredicateSet groups the constant predicates applied to one column
// and resolves them to a single selectivity following [16]: the tightest
// lower and upper range bounds form a combined range, and <> predicates
// contribute multiplicatively on top. An equality admits one value, so it
// caps that selectivity at its own; it admits none when a second equality
// names another constant or its constant fails a range or <> predicate.
type ColumnPredicateSet struct {
	// Column is the subject column.
	Column expr.ColumnRef
	// Preds are the constant predicates on the column.
	Preds []expr.Predicate
}

// Resolve computes the combined selectivity of the predicate set against
// the column's statistics.
func (s ColumnPredicateSet) Resolve(cs *catalog.ColumnStats) (float64, error) {
	var eqs, others []expr.Predicate
	for _, p := range s.Preds {
		if p.Kind() != expr.KindLocalConst {
			return 0, fmt.Errorf("selest: %s is not a constant predicate", p)
		}
		if p.Op == expr.OpEQ {
			eqs = append(eqs, p)
		} else {
			others = append(others, p)
		}
	}
	sel, err := resolveRanges(cs, others)
	if err != nil || len(eqs) == 0 {
		return sel, err
	}
	if distinctConstants(eqs) > 1 {
		return 0, nil
	}
	c := eqs[0].Const
	for _, p := range others {
		if !c.IsNull() && !p.Const.IsNull() && storage.Comparable(c.Type(), p.Const.Type()) &&
			!p.Op.Holds(storage.Compare(c, p.Const)) {
			return 0, nil
		}
	}
	eq, err := ConstSelectivity(cs, expr.OpEQ, c)
	if err != nil {
		return 0, err
	}
	return clamp01(min(eq, sel)), nil
}

// resolveRanges is the selectivity of a column's range and <> predicates.
// Every bound holds wherever all of them do, so the ranges admit at most
// the smallest estimate of any lower bound, of any upper bound, and of the
// two together, P(lo) + P(hi) − 1; under estimates that grow with the bound
// those are the tightest bounds ([16]). Bounds that contradict each other
// admit nothing. <> and non-numeric range predicates multiply on top.
func resolveRanges(cs *catalog.ColumnStats, preds []expr.Predicate) (float64, error) {
	lo, loStrict, loSel, los := math.Inf(-1), false, 1.0, 0
	hi, hiStrict, hiSel, his := math.Inf(1), false, 1.0, 0
	for _, p := range preds {
		if p.Op == expr.OpNE || !numeric(p.Const) {
			continue
		}
		s, err := ConstSelectivity(cs, p.Op, p.Const)
		if err != nil {
			return 0, err
		}
		c := p.Const.AsFloat()
		if p.Op == expr.OpGT || p.Op == expr.OpGE {
			los, loSel = los+1, min(loSel, s)
			if c > lo || c == lo && p.Op == expr.OpGT {
				lo, loStrict = c, p.Op == expr.OpGT
			}
		} else {
			his, hiSel = his+1, min(hiSel, s)
			if c < hi || c == hi && p.Op == expr.OpLT {
				hi, hiStrict = c, p.Op == expr.OpLT
			}
		}
	}
	if lo > hi || lo == hi && (loStrict || hiStrict) {
		return 0, nil
	}
	sel := min(loSel, hiSel)
	if los > 0 && his > 0 {
		// The sum is exact for complementary one-sided ranges, but rounding
		// can lift it an ulp above either side.
		sel = min(sel, loSel+hiSel-1)
	}
	sel = clamp01(sel)
	for _, p := range preds {
		if p.Op == expr.OpNE || !numeric(p.Const) {
			s, err := ConstSelectivity(cs, p.Op, p.Const)
			if err != nil {
				return 0, err
			}
			sel *= s
		}
	}
	return clamp01(sel), nil
}

func distinctConstants(eqs []expr.Predicate) int {
	seen := make(map[string]struct{}, len(eqs))
	for _, p := range eqs {
		seen[p.Const.Key()] = struct{}{}
	}
	return len(seen)
}

func clamp01(x float64) float64 {
	switch {
	case x < 0 || math.IsNaN(x):
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
