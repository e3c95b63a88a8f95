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
// closure this way reaches the fixpoint in one pass.
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
	// Implied holds only the newly derived predicates, in deterministic
	// order.
	Implied []expr.Predicate
	// Classes are the j-equivalence classes of all participating columns.
	Classes *eqclass.Classes
}

// Compute performs duplicate elimination (ELS step 1) and transitive
// closure (ELS step 2) over the given conjunction.
func Compute(preds []expr.Predicate) Result {
	orig := expr.Dedup(preds)
	classes := eqclass.FromPredicates(orig)

	seen := make(map[string]struct{}, len(orig)*2)
	for _, p := range orig {
		seen[p.CanonicalKey()] = struct{}{}
	}

	var implied []expr.Predicate
	emit := func(p expr.Predicate) {
		k := p.CanonicalKey()
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		implied = append(implied, p)
	}

	// (i) Equalities between every pair of j-equivalent columns.
	// Covers rules a, b, c and d: whatever mix of join and local equalities
	// connected two columns, the pairwise equality is implied.
	for _, class := range classes.All() {
		for i := 0; i < len(class); i++ {
			for j := i + 1; j < len(class); j++ {
				emit(expr.NewJoin(class[i], expr.OpEQ, class[j]).Normalize())
			}
		}
	}

	// (ii) Rule e: propagate each column-constant comparison to every
	// j-equivalent column. Applies to any comparison operator as long as
	// the columns are linked by equality.
	for _, p := range orig {
		if p.Kind() != expr.KindLocalConst {
			continue
		}
		for _, m := range classes.Members(p.Left) {
			if m.SameAs(p.Left) {
				continue
			}
			emit(expr.NewConst(m, p.Op, p.Const))
		}
	}

	out := make([]expr.Predicate, 0, len(orig)+len(implied))
	out = append(out, orig...)
	out = append(out, implied...)
	return Result{Predicates: out, Implied: implied, Classes: classes}
}

// LocalPredicatesOf returns the local predicates (constant and same-table
// column comparisons) on the named table.
func LocalPredicatesOf(preds []expr.Predicate, table string) []expr.Predicate {
	var out []expr.Predicate
	for _, p := range preds {
		if p.Kind() != expr.KindJoin && p.References(table) {
			out = append(out, p)
		}
	}
	return out
}
