package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Disjunction is an OR-group of local predicates over a single table:
// (p1 OR p2 OR ... OR pn). The paper's Section 9 names disjunction support
// as future work; this implementation restricts disjunctions to local
// predicates of one table — which keeps the equivalence-class machinery
// sound (an OR never implies an equality) while covering the common
// "col IN (...)"-style filters — and estimates them under the independence
// assumption.
type Disjunction struct {
	// Preds are the disjuncts. All must reference the same single table and
	// none may be a join predicate.
	Preds []Predicate
}

// NewDisjunction builds a validated disjunction. It returns an error if the
// group is empty, contains a join predicate, or spans multiple tables.
func NewDisjunction(preds []Predicate) (Disjunction, error) {
	if len(preds) == 0 {
		return Disjunction{}, fmt.Errorf("expr: empty disjunction")
	}
	table := preds[0].Left.Table
	for _, p := range preds {
		if p.Kind() == KindJoin {
			return Disjunction{}, fmt.Errorf("expr: join predicate %s not allowed in a disjunction", p)
		}
		for _, t := range p.Tables() {
			if !strings.EqualFold(t, table) {
				return Disjunction{}, fmt.Errorf("expr: disjunction spans tables %q and %q", table, t)
			}
		}
	}
	return Disjunction{Preds: preds}, nil
}

// Table returns the single table the disjunction restricts.
func (d Disjunction) Table() string {
	if len(d.Preds) == 0 {
		return ""
	}
	return d.Preds[0].Left.Table
}

// References reports whether the disjunction is over the named table.
func (d Disjunction) References(table string) bool {
	return strings.EqualFold(d.Table(), table)
}

// CanonicalKey returns a key equal for disjunctions with the same disjunct
// set (order-insensitive).
func (d Disjunction) CanonicalKey() string {
	keys := make([]string, len(d.Preds))
	for i, p := range d.Preds {
		keys[i] = p.CanonicalKey()
	}
	sort.Strings(keys)
	return "OR{" + strings.Join(keys, " | ") + "}"
}

// String renders the disjunction as SQL.
func (d Disjunction) String() string {
	parts := make([]string, len(d.Preds))
	for i, p := range d.Preds {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// DedupDisjunctions removes duplicate disjunctions (by canonical key),
// preserving first-occurrence order, and drops disjuncts duplicated within
// a group.
func DedupDisjunctions(ds []Disjunction) []Disjunction {
	seen := make(map[string]struct{}, len(ds))
	out := make([]Disjunction, 0, len(ds))
	for _, d := range ds {
		d.Preds = Dedup(d.Preds)
		k := d.CanonicalKey()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, d)
	}
	return out
}

// DisjunctionsOf returns the disjunctions restricting the named table.
func DisjunctionsOf(ds []Disjunction, table string) []Disjunction {
	var out []Disjunction
	for _, d := range ds {
		if d.References(table) {
			out = append(out, d)
		}
	}
	return out
}
