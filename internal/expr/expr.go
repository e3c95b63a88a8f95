// Package expr models the predicates of conjunctive select-project-join
// queries: equality/inequality comparisons between two columns, or between
// a column and a constant. This is exactly the predicate language of the
// paper — conjunctions of "col op col" join predicates and "col op const"
// local predicates — plus same-table column-column predicates, which arise
// from transitive closure (rule 2b of Algorithm ELS).
package expr

import (
	"strings"

	"repro/internal/storage"
)

// ColumnRef names a column of a named table (or table alias). Comparisons
// between refs are case-insensitive; Key returns the canonical form.
type ColumnRef struct {
	// Table is the table or alias name.
	Table string
	// Column is the column name within the table.
	Column string
}

// Key returns the canonical lower-cased "table.column" form used for map
// keys and equality.
func (c ColumnRef) Key() string {
	return strings.ToLower(c.Table) + "." + strings.ToLower(c.Column)
}

// String renders the reference as written.
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// SameAs reports whether two refs name the same column (case-insensitive).
func (c ColumnRef) SameAs(o ColumnRef) bool { return c.Key() == o.Key() }

// CompareOp is a comparison operator.
type CompareOp int

// The comparison operators of the predicate language.
const (
	OpEQ CompareOp = iota // =
	OpNE                  // <>
	OpLT                  // <
	OpLE                  // <=
	OpGT                  // >
	OpGE                  // >=
)

// String renders the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?"
	}
}

// Valid reports whether op is a defined operator.
func (op CompareOp) Valid() bool { return op >= OpEQ && op <= OpGE }

// Flip returns the operator with its operands swapped: a op b ≡ b Flip(op) a.
func (op CompareOp) Flip() CompareOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default: // = and <> are symmetric
		return op
	}
}

// Holds reports whether "cmp op 0" holds, where cmp is a three-way
// comparison result (storage.Compare).
func (op CompareOp) Holds(cmp int) bool {
	switch op {
	case OpEQ:
		return cmp == 0
	case OpNE:
		return cmp != 0
	case OpLT:
		return cmp < 0
	case OpLE:
		return cmp <= 0
	case OpGT:
		return cmp > 0
	case OpGE:
		return cmp >= 0
	default:
		return false
	}
}

// PredicateKind classifies a predicate by the shape the paper's algorithm
// cares about.
type PredicateKind int

const (
	// KindJoin is an equality or inequality between columns of two
	// different tables.
	KindJoin PredicateKind = iota
	// KindLocalColCol compares two columns of the same table.
	KindLocalColCol
	// KindLocalConst compares a column to a constant.
	KindLocalConst
)

// String names the kind.
func (k PredicateKind) String() string {
	switch k {
	case KindJoin:
		return "join"
	case KindLocalColCol:
		return "local-colcol"
	case KindLocalConst:
		return "local-const"
	default:
		return "unknown"
	}
}

// Predicate is one conjunct of a WHERE clause: Left op Right where Right is
// either a column (join or same-table predicate) or a constant (local
// predicate). Predicates are immutable by convention.
type Predicate struct {
	// Left is the left-hand column.
	Left ColumnRef
	// Op is the comparison operator.
	Op CompareOp
	// RightIsColumn selects between Right (true) and Const (false).
	RightIsColumn bool
	// Right is the right-hand column when RightIsColumn.
	Right ColumnRef
	// Const is the right-hand constant when !RightIsColumn.
	Const storage.Value
}

// NewJoin builds a column-column predicate l op r. The result may be a
// same-table (KindLocalColCol) predicate if both refs share a table.
func NewJoin(l ColumnRef, op CompareOp, r ColumnRef) Predicate {
	return Predicate{Left: l, Op: op, RightIsColumn: true, Right: r}
}

// NewConst builds a column-constant predicate l op c.
func NewConst(l ColumnRef, op CompareOp, c storage.Value) Predicate {
	return Predicate{Left: l, Op: op, Const: c}
}

// Kind classifies the predicate.
func (p Predicate) Kind() PredicateKind {
	if !p.RightIsColumn {
		return KindLocalConst
	}
	if strings.EqualFold(p.Left.Table, p.Right.Table) {
		return KindLocalColCol
	}
	return KindJoin
}

// IsEquality reports whether the operator is =.
func (p Predicate) IsEquality() bool { return p.Op == OpEQ }

// Tables returns the distinct table names referenced, in left-right order.
func (p Predicate) Tables() []string {
	if p.RightIsColumn && !strings.EqualFold(p.Left.Table, p.Right.Table) {
		return []string{p.Left.Table, p.Right.Table}
	}
	return []string{p.Left.Table}
}

// References reports whether the predicate mentions the given table.
func (p Predicate) References(table string) bool {
	if strings.EqualFold(p.Left.Table, table) {
		return true
	}
	return p.RightIsColumn && strings.EqualFold(p.Right.Table, table)
}

// Normalize returns an equivalent predicate in canonical orientation:
// column-column predicates order their operands by Key (flipping the
// operator as needed); constant predicates are unchanged. Two equivalent
// predicates normalize to equal CanonicalKey strings, which is how ELS
// step 1 removes duplicates.
func (p Predicate) Normalize() Predicate {
	if p.RightIsColumn && p.Right.Key() < p.Left.Key() {
		return Predicate{Left: p.Right, Op: p.Op.Flip(), RightIsColumn: true, Right: p.Left}
	}
	return p
}

// CanonicalKey returns a string equal for exactly the predicates that are
// syntactically identical up to operand order and case.
func (p Predicate) CanonicalKey() string {
	l := p.Left.Key()
	if !p.RightIsColumn {
		return l + " " + p.Op.String() + " " + p.Const.Key()
	}
	// Normalize's orientation, with each operand's key rendered once.
	r, op := p.Right.Key(), p.Op
	if r < l {
		l, r, op = r, l, op.Flip()
	}
	return l + " " + op.String() + " " + r
}

// String renders the predicate as SQL.
func (p Predicate) String() string {
	if p.RightIsColumn {
		return p.Left.Table + "." + p.Left.Column + " " + p.Op.String() + " " + p.Right.Table + "." + p.Right.Column
	}
	return p.Left.Table + "." + p.Left.Column + " " + p.Op.String() + " " + constString(p.Const)
}

func constString(v storage.Value) string {
	if v.Type() == storage.TypeString && !v.IsNull() {
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	}
	return v.String()
}

// Dedup returns the predicates with duplicates (by CanonicalKey) removed,
// preserving first-occurrence order. This is step 1 of Algorithm ELS:
// "(R1.x > 500) AND (R1.x > 500)" collapses to a single predicate.
func Dedup(preds []Predicate) []Predicate {
	seen := make(map[string]struct{}, len(preds))
	out := make([]Predicate, 0, len(preds))
	for _, p := range preds {
		k := p.CanonicalKey()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, p)
	}
	return out
}

// FormatConjunction renders predicates joined by AND, as in a WHERE clause.
func FormatConjunction(preds []Predicate) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}
