package selest

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// DisjunctionSelectivity estimates the fraction of a table's rows
// satisfying (p1 OR ... OR pn) as 1 − ∏(1 − sᵢ) under the independence
// assumption — the classic System-R treatment. For disjuncts over one
// column with overlapping ranges this overestimates slightly (it
// double-counts the overlap), which is the standard tradeoff the paper's
// future-work discussion leaves open.
func DisjunctionSelectivity(ts *catalog.TableStats, d expr.Disjunction) (float64, error) {
	if ts == nil {
		return 0, fmt.Errorf("selest: nil table stats")
	}
	if len(d.Preds) == 0 {
		return 0, fmt.Errorf("selest: empty disjunction")
	}
	notAny := 1.0
	for _, p := range d.Preds {
		var s float64
		switch p.Kind() {
		case expr.KindLocalConst:
			cs := ts.Column(p.Left.Column)
			if cs == nil {
				return 0, fmt.Errorf("selest: table %s has no column %q", ts.Name, p.Left.Column)
			}
			var err error
			s, err = ConstSelectivity(cs, p.Op, p.Const)
			if err != nil {
				return 0, err
			}
		case expr.KindLocalColCol:
			l := ts.Column(p.Left.Column)
			r := ts.Column(p.Right.Column)
			if l == nil || r == nil {
				return 0, fmt.Errorf("selest: table %s missing a column of %s", ts.Name, p)
			}
			if p.Op == expr.OpEQ {
				dmax := l.Distinct
				if r.Distinct > dmax {
					dmax = r.Distinct
				}
				if dmax > 0 {
					s = 1 / dmax
				}
			} else {
				s = defaultColColSelectivity
			}
		default:
			return 0, fmt.Errorf("selest: join predicate %s not allowed in a disjunction", p)
		}
		notAny *= 1 - clamp01(s)
	}
	return clamp01(1 - notAny), nil
}
