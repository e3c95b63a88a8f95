package executor

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/storage"
)

// compiledPred is one predicate with its column references resolved to
// ordinals of a row schema, avoiding per-row name lookups.
type compiledPred struct {
	leftIdx  int
	op       expr.CompareOp
	rightIdx int // -1 when the right side is a constant
	constant storage.Value
}

// compiled is a conjunction of resolved predicates.
type compiled struct {
	preds []compiledPred
}

// compileAll resolves each predicate's columns against the schema, whose
// column names are the qualified "alias.column" strings produced by scans.
func compileAll(preds []expr.Predicate, schema *storage.Schema) (compiled, error) {
	out := compiled{preds: make([]compiledPred, 0, len(preds))}
	for _, p := range preds {
		cp := compiledPred{op: p.Op, rightIdx: -1, constant: p.Const}
		li := schema.ColumnIndex(p.Left.Table + "." + p.Left.Column)
		if li < 0 {
			return compiled{}, fmt.Errorf("executor: cannot resolve %s in schema %s", p.Left, schema)
		}
		cp.leftIdx = li
		if p.RightIsColumn {
			ri := schema.ColumnIndex(p.Right.Table + "." + p.Right.Column)
			if ri < 0 {
				return compiled{}, fmt.Errorf("executor: cannot resolve %s in schema %s", p.Right, schema)
			}
			cp.rightIdx = ri
		}
		out.preds = append(out.preds, cp)
	}
	return out, nil
}

// compileDisjunctions resolves each OR-group against the schema; an
// OR-group's disjuncts compile like a conjunction's conjuncts.
func compileDisjunctions(disjs []expr.Disjunction, schema *storage.Schema) ([]compiled, error) {
	out := make([]compiled, 0, len(disjs))
	for _, d := range disjs {
		c, err := compileAll(d.Preds, schema)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
