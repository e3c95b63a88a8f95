// Package optimizer enumerates join orders and methods to produce query
// evaluation plans (QEPs). It is deliberately a classic System-R style
// optimizer — left-deep dynamic programming over connected subsets, with
// nested-loops and sort-merge join methods as in the paper's Starburst
// experiment — whose cardinality estimates come from a pluggable
// cardest.Estimator. Plugging in Algorithm ELS versus Algorithm SM/SSS is
// exactly the paper's experimental manipulation.
package optimizer

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/storage"
)

// JoinMethod identifies a physical join algorithm.
type JoinMethod int

const (
	// NestedLoop re-evaluates the inner input once per outer row.
	NestedLoop JoinMethod = iota
	// SortMerge sorts both inputs on the join key and merges.
	SortMerge
	// HashJoin builds a hash table on the inner input and probes it. The
	// paper's experiment used only nested loops and sort-merge; hash join is
	// provided for completeness and disabled in paper mode.
	HashJoin
)

// String names the method.
func (m JoinMethod) String() string {
	switch m {
	case NestedLoop:
		return "NL"
	case SortMerge:
		return "SM"
	case HashJoin:
		return "HASH"
	default:
		return "?"
	}
}

// Plan is a node of a query evaluation plan tree.
type Plan interface {
	// Tables returns the aliases covered by the subtree, sorted.
	Tables() []string
	// EstRows is the optimizer's estimated output cardinality.
	EstRows() float64
	// Cost is the estimated total cost of producing the output.
	Cost() float64
	// Width is the estimated output row width in bytes.
	Width() int
	// String renders a one-line summary.
	String() string
}

// Cond is one predicate of a plan node with its columns resolved, when the
// plan is built, to ordinals of the rows the node reads: a scan's base-table
// row, or a join's left input row followed by its inner table's row.
type Cond struct {
	Left  int
	Op    expr.CompareOp
	Right int // -1 when the right side is a constant
	Const storage.Value
}

// Scan is a leaf plan: a full scan of a base table with the table's local
// predicates applied on the fly.
type Scan struct {
	// Alias is the query-visible name.
	Alias string
	// Table is the catalog table name.
	Table string
	// Filter holds the local predicates pushed into the scan.
	Filter []expr.Predicate
	// FilterOr holds the OR-groups (local disjunctions) pushed into the
	// scan.
	FilterOr []expr.Disjunction
	// Rows is the estimated output cardinality (effective cardinality).
	Rows float64
	// BaseRows is the unreduced table cardinality (drives the scan cost).
	BaseRows float64
	// RowWidth is the row width in bytes.
	RowWidth int
	// ScanCost is the cost of one execution of the scan.
	ScanCost float64
	// Conds are Filter, and OrConds the OR-groups of FilterOr, over the base
	// table's ordinals.
	Conds   []Cond
	OrConds [][]Cond
	// loaded says the table had data when the plan was built, and missing
	// names a column the plan reads that the data lacks (zero if none).
	loaded  bool
	missing expr.ColumnRef
}

// Tables implements Plan.
func (s *Scan) Tables() []string { return []string{s.Alias} }

// EstRows implements Plan.
func (s *Scan) EstRows() float64 { return s.Rows }

// Cost implements Plan.
func (s *Scan) Cost() float64 { return s.ScanCost }

// Width implements Plan.
func (s *Scan) Width() int { return s.RowWidth }

// String implements Plan.
func (s *Scan) String() string { return string(s.appendTo(nil)) }

func (s *Scan) appendTo(b []byte) []byte {
	b = append(b, "Scan("...)
	if !strings.EqualFold(s.Alias, s.Table) {
		b = append(append(b, s.Table...), " AS "...)
	}
	b, sep := append(b, s.Alias...), " | "
	for _, p := range s.Filter {
		b, sep = append(append(b, sep...), p.String()...), " AND "
	}
	for _, d := range s.FilterOr {
		b, sep = append(append(b, sep...), d.String()...), " AND "
	}
	return appendCosts(append(b, ')'), s.Rows, s.ScanCost)
}

// Join is an inner plan node joining Left (outer) with Right (inner). Plans
// are left-deep: the inner is always a base-table scan.
type Join struct {
	// Left is the outer input.
	Left Plan
	// Right is the inner input.
	Right *Scan
	// Method is the physical join algorithm.
	Method JoinMethod
	// Preds are the join predicates applied at this node (all eligible
	// predicates; the estimator decides which selectivities count).
	Preds []expr.Predicate
	// Rows is the estimated output cardinality.
	Rows float64
	// PlanCost is the estimated cumulative cost.
	PlanCost float64
	// Step records the estimator's per-group selectivity choices for
	// EXPLAIN output.
	Step cardest.StepResult
	// LeftKey and RightKey are the join key's ordinals in the left input and
	// in the inner table: the first equality predicate for sort-merge and
	// hash joins; -1 for nested loops.
	LeftKey, RightKey int
	// Residual are the other predicates of Preds, in order, over the left
	// input's columns followed by the inner table's.
	Residual []Cond
	// tables is the sorted alias set, filled when the optimizer builds the
	// node: a finished plan is shared by concurrent readers (the plan cache
	// hands one tree to every query that hits it) and is never written.
	tables []string
}

// Tables implements Plan.
func (j *Join) Tables() []string { return j.tables }

// EstRows implements Plan.
func (j *Join) EstRows() float64 { return j.Rows }

// Cost implements Plan.
func (j *Join) Cost() float64 { return j.PlanCost }

// Width implements Plan.
func (j *Join) Width() int { return j.Left.Width() + j.Right.Width() }

// String implements Plan.
func (j *Join) String() string { return string(j.appendTo(nil)) }

func (j *Join) appendTo(b []byte) []byte {
	b = append(append(append(b, j.Method.String()...), '('), strings.Join(j.Left.Tables(), ",")...)
	b = append(append(b, " ⋈ "...), j.Right.Alias...)
	return appendCosts(append(b, ')'), j.Rows, j.PlanCost)
}

// appendCosts appends a node's " rows=… cost=…" suffix.
func appendCosts(b []byte, rows, cost float64) []byte {
	b = appendRows(append(b, " rows="...), rows)
	return strconv.AppendFloat(append(b, " cost="...), cost, 'f', 1, 64)
}

func fmtRows(r float64) string { return string(appendRows(nil, r)) }

// appendRows renders a row count: an integer exactly, anything else to
// three significant digits.
func appendRows(b []byte, r float64) []byte {
	if r == float64(int64(r)) && r < 1e15 && r >= 0 {
		return strconv.AppendInt(b, int64(r), 10)
	}
	return strconv.AppendFloat(b, r, 'g', 3, 64)
}

// Format renders the plan tree with indentation, for EXPLAIN output.
func Format(p Plan) string { return string(appendPlan(make([]byte, 0, 1024), p, 0)) }

func appendPlan(b []byte, p Plan, depth int) []byte {
	for range depth {
		b = append(b, "  "...)
	}
	switch n := p.(type) {
	case *Scan:
		return append(n.appendTo(b), '\n')
	case *Join:
		b = append(n.appendTo(b), '\n')
		return appendPlan(appendPlan(b, n.Left, depth+1), n.Right, depth+1)
	default:
		return append(append(b, p.String()...), '\n')
	}
}

// JoinOrder returns the base-table order of a plan (outermost first).
func JoinOrder(p Plan) []string {
	switch n := p.(type) {
	case *Scan:
		return []string{n.Alias}
	case *Join:
		return append(JoinOrder(n.Left), n.Right.Alias)
	default:
		return nil
	}
}

// OutputStarts returns where each table's columns start in the plan's output
// row, by table number: aliases[t] names table number t. A left-deep plan's
// output row is its tables' data columns in join order, so column c of
// table t's data is output ordinal starts[t] + c. It walks the plan's join
// order and reads no estimate. A table the plan does not scan gets -1.
func OutputStarts(p Plan, cat *catalog.Catalog, aliases []string) []int {
	var scans []*Scan // innermost last
	for p != nil {
		switch n := p.(type) {
		case *Join:
			scans, p = append(scans, n.Right), n.Left
		case *Scan:
			scans, p = append(scans, n), nil
		default:
			p = nil
		}
	}
	starts := make([]int, len(aliases))
	for t := range starts {
		starts[t] = -1
	}
	at := 0
	for i := len(scans) - 1; i >= 0; i-- {
		s := scans[i]
		if t := slices.IndexFunc(aliases, func(a string) bool { return strings.EqualFold(a, s.Alias) }); t >= 0 {
			starts[t] = at
		}
		if data := cat.Data(s.Table); data != nil {
			at += data.Schema().NumColumns()
		}
	}
	return starts
}

// Runnable reports whether the plan can run. A plan reading a table or a
// column that had no loaded data when it was planned explains and estimates
// but cannot run: Runnable names what is missing, as ErrParse. A plan runs
// only against the catalog snapshot it was planned on, whose data its
// ordinals index.
func Runnable(p Plan) error {
	for p != nil {
		var s *Scan
		switch n := p.(type) {
		case *Scan:
			s, p = n, nil
		case *Join:
			s, p = n.Right, n.Left
		default:
			return fmt.Errorf("optimizer: unknown plan node %T", p)
		}
		switch {
		case !s.loaded:
			return fmt.Errorf("%w: table %q has no loaded data", governor.ErrParse, s.Table)
		case s.missing != (expr.ColumnRef{}):
			return fmt.Errorf("%w: %s: table %q has no loaded column %q", governor.ErrParse, s.missing, s.Table, s.missing.Column)
		}
	}
	return nil
}

// StepSizes returns the estimated sizes after each join of a left-deep
// plan, innermost join first — the numbers reported in the paper's
// Section 8 table ("Estimated Result Sizes").
func StepSizes(p Plan) []float64 {
	var out []float64
	var walk func(Plan)
	walk = func(n Plan) {
		if j, ok := n.(*Join); ok {
			walk(j.Left)
			out = append(out, j.Rows)
		}
	}
	walk(p)
	return out
}
