// Package closure implements predicate transitive closure (PTC), step 2 of
// Algorithm ELS. Given the conjuncts of a WHERE clause it derives every
// implied equality predicate and propagates constant comparisons across
// equality-connected columns. The paper lists five inference rule shapes
// (Section 4, step 2):
//
//	a. join + join   → join   (R1.x = R2.y) ∧ (R2.y = R3.z) ⇒ (R1.x = R3.z)
//	b. join + join   → local  (R1.x = R2.y) ∧ (R1.x = R2.w) ⇒ (R2.y = R2.w)
//	c. local + local → local  (R1.x = R1.y) ∧ (R1.y = R1.z) ⇒ (R1.x = R1.z)
//	d. join + local  → join   (R1.x = R2.y) ∧ (R1.x = R1.v) ⇒ (R2.y = R1.v)
//	e. join + local  → local  (R1.x = R2.y) ∧ (R1.x op c)   ⇒ (R2.y op c)
//
// All five are subsumed by computing the equivalence classes of the
// equality predicates and then (i) emitting the equality between every
// pair of j-equivalent columns and (ii) replicating every column-constant
// comparison onto every column j-equivalent to its subject. Computing the
// closure this way reaches the fixpoint in one pass. Both steps work on the
// classes' column ids, never on rendered strings.
package closure

import (
	"repro/internal/eqclass"
	"repro/internal/expr"
)

// Result is the outcome of transitive closure over a conjunction.
type Result struct {
	// Predicates is the closed, duplicate-free conjunction: the original
	// predicates (deduplicated, in first-occurrence order) followed by the
	// implied ones.
	Predicates []expr.Predicate
	// Operands are each predicate's column ids, aligned with Predicates.
	Operands []eqclass.Operands
	// Implied holds only the newly derived predicates, in deterministic
	// order.
	Implied []expr.Predicate
	// Classes are the j-equivalence classes of all participating columns.
	Classes *eqclass.Classes
}

// predKey identifies a predicate up to operand order and case: (column,
// op, column) oriented by column key, or (column, op, constant key).
type predKey struct {
	left, right int32
	op          expr.CompareOp
	value       string
}

// Compute performs duplicate elimination (ELS step 1) and transitive
// closure (ELS step 2) over the given conjunction.
func Compute(preds []expr.Predicate) Result { return run(preds, true) }

// Dedup performs duplicate elimination (ELS step 1) alone.
func Dedup(preds []expr.Predicate) Result { return run(preds, false) }

func run(preds []expr.Predicate, close bool) Result {
	// A duplicate names the columns of an earlier predicate, so numbering
	// every predicate's columns numbers the survivors' the same way.
	classes, operands := eqclass.Build(preds)
	res := Result{
		Predicates: make([]expr.Predicate, 0, len(preds)),
		Operands:   make([]eqclass.Operands, 0, len(preds)),
		Classes:    classes,
	}
	seen := make(map[predKey]struct{}, len(preds))
	emit := func(p expr.Predicate, ops eqclass.Operands, k predKey) {
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			res.Predicates = append(res.Predicates, p)
			res.Operands = append(res.Operands, ops)
		}
	}
	for i, p := range preds {
		ops := operands[i]
		k := predKey{ops.Left, ops.Right, p.Op, ""}
		if !p.RightIsColumn {
			k.value = p.Const.Key()
		} else if classes.Key(ops.Right) < classes.Key(ops.Left) {
			k = predKey{ops.Right, ops.Left, p.Op.Flip(), ""}
		}
		emit(p, ops, k)
	}
	n := len(res.Predicates)
	if !close {
		return res
	}
	groups, of := classes.Groups()

	// (i) Equalities between every pair of j-equivalent columns, oriented
	// already: members are sorted by key. Covers rules a, b, c and d:
	// whatever mix of join and local equalities connected two columns, the
	// pairwise equality is implied.
	for _, g := range groups {
		for i, a := range g {
			for _, b := range g[i+1:] {
				emit(expr.NewJoin(classes.Ref(a), expr.OpEQ, classes.Ref(b)), eqclass.Operands{Left: a, Right: b}, predKey{a, b, expr.OpEQ, ""})
			}
		}
	}

	// (ii) Rule e: propagate each column-constant comparison to every
	// j-equivalent column. Applies to any comparison operator as long as
	// the columns are linked by equality.
	for i, p := range res.Predicates[:n] {
		l := res.Operands[i].Left
		if g := groups[of[l]]; !p.RightIsColumn && len(g) > 1 {
			value := p.Const.Key()
			for _, m := range g {
				if m != l {
					emit(expr.NewConst(classes.Ref(m), p.Op, p.Const), eqclass.Operands{Left: m, Right: -1}, predKey{m, -1, p.Op, value})
				}
			}
		}
	}
	if m := len(res.Predicates); m > n {
		res.Implied = res.Predicates[n:m:m]
	}
	return res
}
